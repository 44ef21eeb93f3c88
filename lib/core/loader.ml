module Value = Ghost_kernel.Value
module Sorted_ids = Ghost_kernel.Sorted_ids
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Climbing_index = Ghost_store.Climbing_index
module Public_store = Ghost_public.Public_store

exception Load_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Load_error s)) fmt

module Vmap = Map.Make (struct
    type t = Value.t

    let compare = Value.compare
  end)

(* Column values of one table, dense id-indexed. *)
type table_data = {
  tbl : Schema.table;
  n : int;
  columns : (string * Value.t array) list;  (* declared columns, key excluded *)
}

let column_values data name =
  try List.assoc name data.columns
  with Not_found -> fail "no column %s in table %s" name data.tbl.Schema.name

let prepare_table (tbl : Schema.table) rows =
  let n = List.length rows in
  let arity = Schema.arity tbl in
  let cols =
    List.map (fun (c : Column.t) -> (c.Column.name, Array.make n Value.Null)) tbl.Schema.columns
  in
  let seen = Array.make n false in
  List.iter
    (fun row ->
       if Array.length row <> arity then
         fail "table %s: row arity %d, expected %d" tbl.Schema.name (Array.length row)
           arity;
       match row.(0) with
       | Value.Int id when id >= 1 && id <= n ->
         if seen.(id - 1) then fail "table %s: duplicate key %d" tbl.Schema.name id;
         seen.(id - 1) <- true;
         List.iteri (fun i (_, arr) -> arr.(id - 1) <- row.(i + 1)) cols
       | Value.Int id -> fail "table %s: key %d not dense in 1..%d" tbl.Schema.name id n
       | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
         fail "table %s: non-integer key" tbl.Schema.name)
    rows;
  { tbl; n; columns = cols }

(* comp.(a-1) = the D-id reached from A-id a along the FK path. *)
let composition schema data_of ~ancestor ~descendant =
  let rec build name =
    if name = descendant then None  (* identity *)
    else begin
      let data = data_of name in
      let child_on_path =
        List.find_opt
          (fun (child, _) -> Schema.is_ancestor schema ~ancestor:child descendant)
          (Schema.children schema name)
      in
      match child_on_path with
      | None -> fail "no FK path from %s to %s" name descendant
      | Some (child, fk_col) ->
        let fk = column_values data fk_col in
        let step =
          Array.map
            (fun v ->
               match v with
               | Value.Int id -> id
               | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
                 fail "table %s: non-integer foreign key in %s" name fk_col)
            fk
        in
        (match build child with
         | None -> Some step
         | Some deeper ->
           Some
             (Array.map
                (fun cid ->
                   if cid < 1 || cid > Array.length deeper then
                     fail "dangling foreign key %d via %s.%s" cid name fk_col
                   else deeper.(cid - 1))
                step))
    end
  in
  match build ancestor with
  | Some arr -> arr
  | None -> Array.init (data_of descendant).n (fun i -> i + 1)

let bucket_by_value values ids_of =
  (* values: per-entity value array (index = id-1); ids_of lets the
     caller remap (identity for level 0). Returns value -> sorted ids. *)
  let m = ref Vmap.empty in
  Array.iteri
    (fun i v ->
       let id = ids_of i in
       m := Vmap.update v (fun l -> Some (id :: Option.value l ~default:[])) !m)
    values;
  Vmap.map (fun l -> Sorted_ids.of_unsorted l) !m

(* A prepared load: host-side arrays validated and a device created,
   but nothing programmed to Flash yet. {!Reorg} drives the phases
   below one at a time (checkpointing between them); [load] runs them
   back to back. The split is observation-free: running the phases in
   order issues exactly the same Flash programs as the former
   monolithic loader. *)
type prepared = {
  device : Device.t;
  schema : Schema.t;
  datas : (string * table_data) list;  (* Schema.tables order *)
  rows : (string * Relation.tuple list) list;
  index_hidden_fks : bool;
}

let device p = p.device
let table_names p = List.map fst p.datas

let prepare ?device_config ?(index_hidden_fks = false) ~trace schema tables_with_rows
  =
  let device =
    match device_config with
    | Some config -> Device.create ~config ~trace ()
    | None -> Device.create ~trace ()
  in
  let datas =
    List.map
      (fun (tbl : Schema.table) ->
         match List.assoc_opt tbl.Schema.name tables_with_rows with
         | Some rows -> (tbl.Schema.name, prepare_table tbl rows)
         | None -> fail "no rows provided for table %s" tbl.Schema.name)
      (Schema.tables schema)
  in
  let data_of name = List.assoc name datas in
  (* Validate FK ranges eagerly. *)
  List.iter
    (fun (name, data) ->
       List.iter
         (fun (c : Column.t) ->
            match c.Column.refs with
            | None -> ()
            | Some target ->
              let target_n = (data_of target).n in
              Array.iter
                (fun v ->
                   match v with
                   | Value.Int id when id >= 1 && id <= target_n -> ()
                   | _ ->
                     fail "table %s: foreign key %s out of range of %s" name
                       c.Column.name target)
                (column_values data c.Column.name))
         data.tbl.Schema.columns)
    datas;
  { device; schema; datas; rows = tables_with_rows; index_hidden_fks }

let comp_of p =
  let data_of name = List.assoc name p.datas in
  fun ~ancestor ~descendant -> composition p.schema data_of ~ancestor ~descendant

let build_skts p =
  let flash = Device.flash p.device in
  let comp = comp_of p in
  let data_of name = List.assoc name p.datas in
  (* SKTs for tables with children. *)
  List.filter_map
    (fun (name, data) ->
       if Schema.children p.schema name = [] then None
       else begin
         let levels = Schema.subtree p.schema name in
         let comps =
           List.map
             (fun d -> if d = name then None else Some (comp ~ancestor:name ~descendant:d))
             levels
         in
         let rows =
           Array.init data.n (fun i ->
             Array.of_list
               (List.map
                  (function
                    | None -> i + 1
                    | Some arr -> arr.(i))
                  comps))
         in
         let max_ids = List.map (fun d -> (data_of d).n) (List.tl levels) in
         Some (name, Skt.build flash ~root:name ~levels ~max_ids ~rows)
       end)
    p.datas

let build_entry p name =
  let flash = Device.flash p.device in
  let schema = p.schema in
  let index_hidden_fks = p.index_hidden_fks in
  let comp = comp_of p in
  let data = List.assoc name p.datas in
  let tbl = data.tbl in
  let hidden_cols =
    List.filter (fun (c : Column.t) -> Column.is_hidden c) tbl.Schema.columns
  in
  let hidden_columns =
    List.map
      (fun (c : Column.t) ->
         ( c.Column.name,
           Column_store.build flash c.Column.ty (column_values data c.Column.name) ))
      hidden_cols
  in
  let climb = Schema.climb_path schema name in
  let attr_indexes =
    List.filter_map
      (fun (c : Column.t) ->
         if not (Column.is_hidden c) then None
         else if Column.is_foreign_key c && not index_hidden_fks then None
         else begin
           let values = column_values data c.Column.name in
           (* Per level: value -> sorted id list. *)
           let per_level =
             List.map
               (fun level ->
                  if level = name then bucket_by_value values (fun i -> i + 1)
                  else begin
                    let comp_arr = comp ~ancestor:level ~descendant:name in
                    let level_values =
                      Array.map (fun tid -> values.(tid - 1)) comp_arr
                    in
                    bucket_by_value level_values (fun i -> i + 1)
                  end)
               climb
           in
           let keys =
             match per_level with
             | own :: _ -> List.map fst (Vmap.bindings own)
             | [] -> assert false
           in
           let entries =
             List.map
               (fun v ->
                  ( v,
                    Array.of_list
                      (List.map
                         (fun m -> Option.value (Vmap.find_opt v m) ~default:[||])
                         per_level) ))
               keys
           in
           Some
             ( c.Column.name,
               Climbing_index.build_sorted flash ~table:name
                 ~column:c.Column.name ~levels:climb entries )
         end)
      tbl.Schema.columns
  in
  let key_index =
    match climb with
    | [] -> assert false  (* climb_path always contains the table *)
    | [ _ ] -> None  (* schema root: nothing to climb to *)
    | _ :: ancestors ->
      let per_level =
        List.map
          (fun level ->
             let comp_arr = comp ~ancestor:level ~descendant:name in
             let buckets = Array.make data.n [] in
             Array.iteri
               (fun i tid -> buckets.(tid - 1) <- (i + 1) :: buckets.(tid - 1))
               comp_arr;
             Array.map Sorted_ids.of_unsorted buckets)
          ancestors
      in
      Some
        (Climbing_index.build_dense flash ~table:name ~count:data.n
           ~levels:ancestors (fun id ->
             Array.of_list (List.map (fun lists -> lists.(id - 1)) per_level)))
  in
  let stats =
    (tbl.Schema.key, Col_stats.of_values (Array.init data.n (fun i -> Value.Int (i + 1))))
    :: List.map
         (fun (cname, values) -> (cname, Col_stats.of_values values))
         data.columns
  in
  ( name,
    {
      Catalog.table = tbl;
      count = data.n;
      hidden_columns;
      key_index;
      attr_indexes;
      stats;
    } )

let assemble p ~skts ~entries =
  let public = Public_store.create p.schema p.rows in
  (* Loading happened in the secure setting: query-time accounting
     starts from a clean clock. *)
  Flash.reset_stats (Device.flash p.device);
  Flash.reset_stats (Device.scratch p.device);
  ( Catalog.
      {
        schema = p.schema;
        device = p.device;
        entries;
        skts;
        deltas = Hashtbl.create 4;
        tombstones = Hashtbl.create 4;
      },
    public )

let load ?device_config ?index_hidden_fks ~trace schema tables_with_rows =
  let p = prepare ?device_config ?index_hidden_fks ~trace schema tables_with_rows in
  let skts = build_skts p in
  let entries = List.map (build_entry p) (table_names p) in
  assemble p ~skts ~entries
