(* Randomized end-to-end property: arbitrary tree schemas, arbitrary
   data, arbitrary conjunctive queries - every plan in the panel must
   return the reference evaluator's rows, nothing may leak, and all
   device RAM must be released. This is the repository's main defense
   against corner cases the medical workload never hits. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan

let vocab = [| "red"; "green"; "blue"; "cyan"; "plum"; "gray"; "pink"; "teal" |]

type gen_column = {
  gc_name : string;
  gc_ty : Value.ty;
  gc_hidden : bool;
  gc_refs : string option;
}

type gen_table = {
  gt_name : string;
  gt_key : string;
  gt_cols : gen_column list;
  gt_rows : int;
}

(* A random tree schema: table 0 is the root; every other table hangs
   off a random earlier table through a foreign key (hidden with
   probability 2/3, as in the demo scenario). *)
let random_tables rng =
  let n_tables = Rng.int_in rng 2 5 in
  let tables =
    Array.init n_tables (fun i ->
      let n_attrs = Rng.int_in rng 1 3 in
      let attrs =
        List.init n_attrs (fun j ->
          let ty =
            match Rng.int rng 4 with
            | 0 -> Value.T_int
            | 1 -> Value.T_char 12
            | 2 -> Value.T_date
            | _ -> Value.T_float
          in
          {
            gc_name = Printf.sprintf "a%d" j;
            gc_ty = ty;
            gc_hidden = Rng.bool rng;
            gc_refs = None;
          })
      in
      {
        gt_name = Printf.sprintf "T%d" i;
        gt_key = Printf.sprintf "T%dID" i;
        gt_cols = attrs;
        gt_rows = Rng.int_in rng 3 120;
      })
  in
  (* parent links: the PARENT holds the fk column to the child *)
  for child = 1 to n_tables - 1 do
    let parent = Rng.int rng child in
    let fk =
      {
        gc_name = Printf.sprintf "fk_T%d" child;
        gc_ty = Value.T_int;
        gc_hidden = Rng.int rng 3 < 2;
        gc_refs = Some tables.(child).gt_name;
      }
    in
    tables.(parent) <- { tables.(parent) with gt_cols = tables.(parent).gt_cols @ [ fk ] }
  done;
  tables

let schema_of_tables tables =
  Schema.create
    (Array.to_list tables
     |> List.map (fun gt ->
       Schema.table ~name:gt.gt_name ~key:gt.gt_key
         (List.map
            (fun gc ->
               Column.make
                 ~visibility:(if gc.gc_hidden then Column.Hidden else Column.Visible)
                 ?refs:gc.gc_refs gc.gc_name gc.gc_ty)
            gt.gt_cols)))

(* Small domains so predicates actually select something. *)
let random_value rng = function
  | Value.T_int -> Value.Int (Rng.int_in rng 0 20)
  | Value.T_char _ -> Value.Str (Rng.pick rng vocab)
  | Value.T_date -> Value.Date (Rng.int_in rng 12000 12030)
  | Value.T_float -> Value.Float (Float.of_int (Rng.int_in rng 0 10) /. 2.)

let random_rows rng (tables : gen_table array) =
  Array.to_list tables
  |> List.map (fun gt ->
    let rows =
      List.init gt.gt_rows (fun i ->
        let attrs =
          List.map
            (fun gc ->
               match gc.gc_refs with
               | Some target ->
                 let n =
                   (Array.to_list tables
                    |> List.find (fun t -> t.gt_name = target))
                     .gt_rows
                 in
                 Value.Int (Rng.int_in rng 1 n)
               | None -> random_value rng gc.gc_ty)
            gt.gt_cols
        in
        Array.of_list (Value.Int (i + 1) :: attrs))
    in
    (gt.gt_name, rows))

(* A random connected FROM set: walk down from a random start table. *)
let random_from rng schema =
  let root = (Schema.root schema).Schema.name in
  let start =
    let all = Array.of_list (List.map (fun t -> t.Schema.name) (Schema.tables schema)) in
    Rng.pick rng all
  in
  ignore root;
  let rec grow set frontier =
    let next =
      List.concat_map
        (fun t -> List.map fst (Schema.children schema t))
        frontier
      |> List.filter (fun t -> not (List.mem t set))
    in
    let keep = List.filter (fun _ -> Rng.int rng 3 < 2) next in
    if keep = [] then set else grow (set @ keep) keep
  in
  grow [ start ] [ start ]

(* SQL surface form of a random literal of the given type. *)
let random_literal rng ty =
  match random_value rng ty with
  | Value.Int i -> string_of_int i
  | Value.Float f -> Printf.sprintf "%g" f
  | Value.Date d -> Printf.sprintf "'%s'" (Ghost_kernel.Date.to_string d)
  | Value.Str s -> Printf.sprintf "'%s'" s
  | Value.Null -> assert false

let render_cmp rng (tbl : Schema.table) (gc : Column.t) =
  let lit () = random_literal rng gc.Column.ty in
  let is_char = match gc.Column.ty with Value.T_char _ -> true | _ -> false in
  let cmp =
    match Rng.int rng (if is_char then 7 else 6) with
    | 0 -> Printf.sprintf "= %s" (lit ())
    | 1 -> Printf.sprintf "<> %s" (lit ())
    | 2 -> Printf.sprintf "< %s" (lit ())
    | 3 -> Printf.sprintf ">= %s" (lit ())
    | 4 -> Printf.sprintf "BETWEEN %s AND %s" (lit ()) (lit ())
    | 5 -> Printf.sprintf "IN (%s, %s)" (lit ()) (lit ())
    | _ ->
      (* LIKE with a short prefix of a vocabulary word *)
      let word = Rng.pick rng vocab in
      let len = Rng.int_in rng 1 (min 3 (String.length word)) in
      Printf.sprintf "LIKE '%s%%'" (String.sub word 0 len)
  in
  Printf.sprintf "%s.%s %s" tbl.Schema.name gc.Column.name cmp


let random_query rng schema =
  let from = random_from rng schema in
  let joins =
    (* every non-start table joins through its parent edge; parents of
       FROM tables are in FROM by construction of the walk *)
    List.filter_map
      (fun t ->
         match Schema.parent schema t with
         | Some (p, fk) when List.mem p from && List.mem t from ->
           Some (Printf.sprintf "%s.%s = %s.%s" p fk t
                   (Schema.find_table schema t).Schema.key)
         | _ -> None)
      from
  in
  let preds =
    List.concat_map
      (fun t ->
         let tbl = Schema.find_table schema t in
         List.filter_map
           (fun (gc : Column.t) ->
              if gc.Column.refs <> None then None
              else if Rng.int rng 3 = 0 then Some (render_cmp rng tbl gc)
              else None)
           tbl.Schema.columns)
      from
  in
  let projections =
    List.concat_map
      (fun t ->
         let tbl = Schema.find_table schema t in
         (Printf.sprintf "%s.%s" t tbl.Schema.key)
         :: List.filter_map
              (fun (gc : Column.t) ->
                 if Rng.bool rng then Some (Printf.sprintf "%s.%s" t gc.Column.name)
                 else None)
              tbl.Schema.columns)
      from
  in
  let where = joins @ preds in
  let start = List.hd from in
  let start_key = (Schema.find_table schema start).Schema.key in
  (* three surface shapes: plain SPJ, ordered (by the unique top key, so
     the expected output is a deterministic list), or aggregated *)
  let shape = Rng.int rng 4 in
  let select_clause, tail_clause, ordered =
    if shape = 3 then begin
      (* aggregate over the whole result, or grouped on one column *)
      let agg_col = Printf.sprintf "%s.%s" start start_key in
      if Rng.bool rng then
        (Printf.sprintf "COUNT(*), MIN(%s), MAX(%s)" agg_col agg_col, "", false)
      else begin
        let gtbl = Schema.find_table schema (Rng.pick rng (Array.of_list from)) in
        let gcols =
          List.filter (fun (c : Column.t) -> c.Column.refs = None) gtbl.Schema.columns
        in
        match gcols with
        | [] -> (Printf.sprintf "COUNT(*)" , "", false)
        | _ ->
          let gc = Rng.pick rng (Array.of_list gcols) in
          ( Printf.sprintf "%s.%s, COUNT(*)" gtbl.Schema.name gc.Column.name,
            Printf.sprintf " GROUP BY %s.%s" gtbl.Schema.name gc.Column.name,
            false )
      end
    end
    else if shape = 2 then
      ( String.concat ", " projections,
        Printf.sprintf " ORDER BY %s.%s%s%s" start start_key
          (if Rng.bool rng then " DESC" else "")
          (if Rng.bool rng then Printf.sprintf " LIMIT %d" (Rng.int_in rng 0 20) else ""),
        true )
    else (String.concat ", " projections, "", false)
  in
  ( Printf.sprintf "SELECT %s FROM %s%s%s" select_clause (String.concat ", " from)
      (match where with
       | [] -> ""
       | w -> " WHERE " ^ String.concat " AND " w)
      tail_clause,
    ordered )

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let run_case seed =
  let rng = Rng.create seed in
  let tables = random_tables rng in
  let schema = schema_of_tables tables in
  let rows = random_rows rng tables in
  let db = Ghost_db.of_schema schema rows in
  let refdb = Reference.db_of_rows schema rows in
  let ok = ref true in
  for _ = 1 to 3 do
    let sql, ordered = random_query rng schema in
    let q =
      try Ghost_db.bind db sql
      with e ->
        Printf.printf "BIND FAILURE seed=%d on %s\n" seed sql;
        raise e
    in
    let expected = Reference.run schema refdb q in
    let panel = Ghost_db.plans db sql in
    List.iteri
      (fun i (plan, _) ->
         if i < 8 then begin
           let r = Ghost_db.run_plan db plan in
           let same =
             if ordered then r.Exec.rows = expected
             else rows_equal r.Exec.rows expected
           in
           if not same then begin
             Printf.printf "MISMATCH seed=%d sql=%s plan=[%s] got=%d want=%d\n" seed sql
               plan.Plan.label (List.length r.Exec.rows) (List.length expected);
             ok := false
           end;
           if Ram.in_use (Device.ram (Ghost_db.device db)) <> 0 then begin
             Printf.printf "RAM LEAK seed=%d plan=[%s]\n" seed plan.Plan.label;
             ok := false
           end
         end)
      panel
  done;
  let verdict = Ghost_db.audit db in
  if not verdict.Ghostdb.Privacy.ok then begin
    Printf.printf "PRIVACY VIOLATION seed=%d\n" seed;
    ok := false
  end;
  !ok

(* Second property: journaled reorganization under fault injection.
   With a lossy NAND (read flips corrected by ECC, occasional program
   failures remapped by the controller), inserting and deleting random
   root rows then reorganizing must produce a fresh image whose answers
   match the reference on the compacted root ids, with the delta folded
   and at least one checkpoint journaled. *)
let run_reorg_case seed =
  let rng = Rng.create (seed lxor 0x5bd1e9) in
  let tables = random_tables rng in
  let schema = schema_of_tables tables in
  let rows = random_rows rng tables in
  let root = tables.(0) in
  let device_config =
    {
      Device.default_config with
      Device.flash_fault =
        Some
          {
            Flash.no_faults with
            Flash.fault_seed = seed;
            read_flip_prob = 1e-3;
            program_fail_prob = 1e-3;
          };
    }
  in
  let db = Ghost_db.of_schema ~device_config schema rows in
  let n_base = root.gt_rows in
  let fresh_root_row id =
    let attrs =
      List.map
        (fun gc ->
           match gc.gc_refs with
           | Some target ->
             let n =
               (Array.to_list tables
                |> List.find (fun t -> t.gt_name = target))
                 .gt_rows
             in
             Value.Int (Rng.int_in rng 1 n)
           | None -> random_value rng gc.gc_ty)
        root.gt_cols
    in
    Array.of_list (Value.Int id :: attrs)
  in
  let n_ins = Rng.int_in rng 1 8 in
  let batch = List.init n_ins (fun i -> fresh_root_row (n_base + i + 1)) in
  Ghost_db.insert db batch;
  let doomed =
    List.init (Rng.int_in rng 1 5) (fun _ -> Rng.int_in rng 1 (n_base + n_ins))
    |> List.sort_uniq compare
  in
  Ghost_db.delete db doomed;
  let db2 = Ghost_db.reorganize db in
  let ok = ref true in
  let f = Device.fault_counters (Ghost_db.device db) in
  if Device.count f Device.Reorg_checkpoints = 0 then begin
    Printf.printf "NO CHECKPOINTS seed=%d\n" seed;
    ok := false
  end;
  if Ghost_db.delta_count db2 <> 0 then begin
    Printf.printf "DELTA NOT FOLDED seed=%d\n" seed;
    ok := false
  end;
  (* the reference sees the survivors on their compacted ids: remaining
     root rows keep their order and are renumbered 1..k *)
  let survivors =
    List.filteri
      (fun i _ -> not (List.mem (i + 1) doomed))
      (List.assoc root.gt_name rows @ batch)
  in
  let compacted =
    List.mapi
      (fun i r ->
         let r' = Array.copy r in
         r'.(0) <- Value.Int (i + 1);
         r')
      survivors
  in
  let rows' =
    List.map
      (fun (name, rs) ->
         if name = root.gt_name then (name, compacted) else (name, rs))
      rows
  in
  let refdb = Reference.db_of_rows schema rows' in
  for _ = 1 to 3 do
    let sql, ordered = random_query rng schema in
    let q =
      try Ghost_db.bind db2 sql
      with e ->
        Printf.printf "BIND FAILURE seed=%d on %s\n" seed sql;
        raise e
    in
    let expected = Reference.run schema refdb q in
    let r = Ghost_db.query db2 sql in
    let same =
      if ordered then r.Exec.rows = expected else rows_equal r.Exec.rows expected
    in
    if not same then begin
      Printf.printf "REORG MISMATCH seed=%d sql=%s got=%d want=%d\n" seed sql
        (List.length r.Exec.rows) (List.length expected);
      ok := false
    end
  done;
  let verdict = Ghost_db.audit db2 in
  if not verdict.Ghostdb.Privacy.ok then begin
    Printf.printf "PRIVACY VIOLATION after reorg seed=%d\n" seed;
    ok := false
  end;
  !ok

let prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random tree schemas: all plans = reference" ~count:40
       QCheck.(int_range 0 1_000_000)
       run_case)

let prop_reorg =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random schemas: faulty reorganization = reference on compacted ids"
       ~count:20
       QCheck.(int_range 0 1_000_000)
       run_reorg_case)

let suite = [ prop; prop_reorg ]
