module Value = Ghost_kernel.Value
module Date = Ghost_kernel.Date
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate

exception Bind_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Bind_error s)) fmt

let ty_of_ast = function
  | Ast.Ty_integer -> Value.T_int
  | Ast.Ty_float -> Value.T_float
  | Ast.Ty_date -> Value.T_date
  | Ast.Ty_char n -> Value.T_char n

let ddl_to_schema creates =
  let table_of_create (c : Ast.create_table) =
    let keys =
      List.filter (fun (d : Ast.ddl_column) -> d.Ast.primary_key) c.Ast.ddl_columns
    in
    let key =
      match keys with
      | [ k ] ->
        if k.Ast.col_ty <> Ast.Ty_integer then
          fail "table %s: primary key %s must be INTEGER" c.Ast.table_name k.Ast.col_name;
        if k.Ast.hidden then
          fail
            "table %s: the primary key cannot be HIDDEN (keys are replicated on the \
             device and stay visible)"
            c.Ast.table_name;
        k.Ast.col_name
      | [] -> fail "table %s: no PRIMARY KEY column" c.Ast.table_name
      | _ -> fail "table %s: more than one PRIMARY KEY column" c.Ast.table_name
    in
    let columns =
      List.filter_map
        (fun (d : Ast.ddl_column) ->
           if d.Ast.primary_key then None
           else
             Some
               (Column.make
                  ~visibility:(if d.Ast.hidden then Column.Hidden else Column.Visible)
                  ?refs:d.Ast.references d.Ast.col_name (ty_of_ast d.Ast.col_ty)))
        c.Ast.ddl_columns
    in
    Schema.table ~name:c.Ast.table_name ~key columns
  in
  Schema.create (List.map table_of_create creates)

type query = {
  tables : string list;
  projections : (string * string) list;
  selections : Predicate.t list;
  join_edges : (string * string) list;
  aggregate : Aggregate.spec option;
  order_by : (int * bool) list;
  limit : int option;
  text : string;
}

let coerce_literal (col : Column.t) lit =
  match col.Column.ty, lit with
  | Value.T_int, Ast.L_int i -> Value.Int i
  | Value.T_float, Ast.L_float f -> Value.Float f
  | Value.T_float, Ast.L_int i -> Value.Float (Float.of_int i)
  | Value.T_date, Ast.L_string s ->
    (try Value.Date (Date.of_string s)
     with Invalid_argument _ -> fail "invalid date literal %S for column %s" s col.name)
  | Value.T_char _, Ast.L_string s -> Value.Str s
  | (Value.T_int | Value.T_float | Value.T_date | Value.T_char _), _ ->
    fail "literal %s does not match the type of column %s (%s)"
      (Ast.literal_to_string lit) col.Column.name (Value.ty_name col.Column.ty)

let bind_select schema (s : Ast.select) =
  if s.Ast.from = [] then fail "empty FROM clause";
  (* alias (or table name) -> table name *)
  let scope = Hashtbl.create 8 in
  let tables =
    List.map
      (fun (table, alias) ->
         if not (Schema.mem_table schema table) then fail "unknown table %s" table;
         let add name =
           if Hashtbl.mem scope name then fail "ambiguous FROM name %s" name;
           Hashtbl.add scope name table
         in
         add (Option.value alias ~default:table);
         (match alias with
          | Some _ when not (Hashtbl.mem scope table) -> Hashtbl.add scope table table
          | Some _ | None -> ());
         table)
      s.Ast.from
  in
  let resolve (r : Ast.col_ref) =
    match r.Ast.qualifier with
    | Some q ->
      (match Hashtbl.find_opt scope q with
       | None -> fail "unknown table or alias %s" q
       | Some table ->
         let tbl = Schema.find_table schema table in
         (match Schema.find_column tbl r.Ast.column with
          | col -> (table, col)
          | exception Not_found -> fail "unknown column %s.%s" table r.Ast.column))
    | None ->
      let matches =
        List.filter_map
          (fun table ->
             let tbl = Schema.find_table schema table in
             match Schema.find_column tbl r.Ast.column with
             | col -> Some (table, col)
             | exception Not_found -> None)
          (List.sort_uniq String.compare tables)
      in
      (match matches with
       | [ m ] -> m
       | [] -> fail "unknown column %s" r.Ast.column
       | _ -> fail "ambiguous column %s" r.Ast.column)
  in
  (* Projections: plain columns pass through; aggregates make the
     query an aggregate query whose base rows are GROUP BY columns
     followed by aggregate arguments. *)
  let has_agg =
    List.exists (function Ast.P_agg _ -> true | Ast.P_col _ -> false) s.Ast.projections
  in
  let aggregate_mode = has_agg || s.Ast.group_by <> [] in
  let projections, aggregate =
    if not aggregate_mode then
      ( List.map
          (fun item ->
             match item with
             | Ast.P_col r ->
               let table, col = resolve r in
               (table, col.Column.name)
             | Ast.P_agg _ -> assert false)
          s.Ast.projections,
        None )
    else begin
      let group_cols =
        List.map
          (fun r ->
             let table, col = resolve r in
             (table, col.Column.name))
          s.Ast.group_by
      in
      let group_pos gc =
        let rec loop i = function
          | [] -> None
          | g :: rest -> if g = gc then Some i else loop (i + 1) rest
        in
        loop 0 group_cols
      in
      (* Assign argument positions after the group columns, in SELECT
         order; reuse a position for a repeated argument column. *)
      let arg_cols = ref [] in
      let arg_pos (table, cname) =
        let rec loop i = function
          | [] ->
            arg_cols := !arg_cols @ [ (table, cname) ];
            List.length group_cols + i
          | a :: rest -> if a = (table, cname) then List.length group_cols + i
            else loop (i + 1) rest
        in
        loop 0 !arg_cols
      in
      let aggs = ref [] in
      let output =
        List.map
          (fun item ->
             match item with
             | Ast.P_col r ->
               let table, col = resolve r in
               (match group_pos (table, col.Column.name) with
                | Some g -> `Group g
                | None ->
                  fail "column %s.%s must appear in GROUP BY" table col.Column.name)
             | Ast.P_agg (fn, arg) ->
               let a_arg, a_arg_pos =
                 match arg with
                 | None -> (None, None)
                 | Some r ->
                   let table, col = resolve r in
                   (match fn, col.Column.ty with
                    | (Ast.Sum | Ast.Avg), (Value.T_char _ | Value.T_date) ->
                      fail "%s over non-numeric column %s.%s" (Ast.agg_fn_name fn)
                        table col.Column.name
                    | _, _ -> ());
                   let key = (table, col.Column.name) in
                   (Some key, Some (arg_pos key))
               in
               let agg =
                 { Aggregate.a_fn = Aggregate.of_ast_fn fn; a_arg; a_arg_pos }
               in
               aggs := !aggs @ [ agg ];
               `Agg (List.length !aggs - 1))
          s.Ast.projections
      in
      ( group_cols @ !arg_cols,
        Some { Aggregate.group_by = group_cols; aggs = !aggs; output } )
    end
  in
  let selections = ref [] in
  let join_edges = ref [] in
  let add_join (ta, ca) (tb, cb) =
    (* One side must be a table key, the other the referencing foreign
       key — i.e. the condition asserts a schema-tree edge. *)
    let edge_of (tk, ck) (tf, cf) =
      let keyed = Schema.find_table schema tk in
      if keyed.Schema.key <> ck.Column.name then None
      else
        match cf.Column.refs with
        | Some target when target = tk -> Some (tf, tk)  (* (parent, child) *)
        | Some _ | None -> None
    in
    match edge_of (ta, ca) (tb, cb), edge_of (tb, cb) (ta, ca) with
    | Some (parent, child), _ | _, Some (parent, child) ->
      join_edges := (parent, child) :: !join_edges
    | None, None ->
      fail "join %s.%s = %s.%s is not a foreign-key edge of the schema tree" ta
        ca.Column.name tb cb.Column.name
  in
  List.iter
    (fun cond ->
       match cond with
       | Ast.C_join (a, b) ->
         let ra = resolve a and rb = resolve b in
         add_join (fst ra, snd ra) (fst rb, snd rb)
       | Ast.C_cmp (r, op, lit) ->
         let table, col = resolve r in
         let v = coerce_literal col lit in
         let cmp =
           match op with
           | Ast.Op_eq -> Predicate.Eq v
           | Ast.Op_ne -> Predicate.Ne v
           | Ast.Op_lt -> Predicate.Lt v
           | Ast.Op_le -> Predicate.Le v
           | Ast.Op_gt -> Predicate.Gt v
           | Ast.Op_ge -> Predicate.Ge v
         in
         selections :=
           Predicate.make ~table ~column:col.Column.name cmp :: !selections
       | Ast.C_between (r, lo, hi) ->
         let table, col = resolve r in
         selections :=
           Predicate.make ~table ~column:col.Column.name
             (Predicate.Between (coerce_literal col lo, coerce_literal col hi))
           :: !selections
       | Ast.C_in (r, lits) ->
         let table, col = resolve r in
         selections :=
           Predicate.make ~table ~column:col.Column.name
             (Predicate.In (List.map (coerce_literal col) lits))
           :: !selections
       | Ast.C_like (r, pat) ->
         let table, col = resolve r in
         (match col.Column.ty with
          | Value.T_char _ -> ()
          | Value.T_int | Value.T_float | Value.T_date ->
            fail "LIKE on non-string column %s.%s" table col.Column.name);
         (* supported patterns: a literal prefix, optionally ending in
            one '%'; '_' and interior '%' are not supported *)
         let n = String.length pat in
         if n = 0 then fail "empty LIKE pattern";
         String.iteri
           (fun i c ->
              match c with
              | '_' -> fail "LIKE '_' wildcard is not supported"
              | '%' when i < n - 1 -> fail "only a trailing %% is supported in LIKE"
              | _ -> ())
           pat;
         let cmp =
           if pat.[n - 1] = '%' then Predicate.Prefix (String.sub pat 0 (n - 1))
           else Predicate.Eq (Value.Str pat)
         in
         selections := Predicate.make ~table ~column:col.Column.name cmp :: !selections)
    s.Ast.where;
  (* Connectivity: the asserted edges must connect all FROM tables. *)
  let distinct = List.sort_uniq String.compare tables in
  (match distinct with
   | [] -> assert false
   | first :: _ ->
     let reached = Hashtbl.create 8 in
     let rec walk t =
       if not (Hashtbl.mem reached t) then begin
         Hashtbl.add reached t ();
         List.iter
           (fun (p, c) ->
              if p = t then walk c;
              if c = t then walk p)
           !join_edges
       end
     in
     walk first;
     List.iter
       (fun t ->
          if not (Hashtbl.mem reached t) then
            fail "table %s is not connected to the rest of the query by join conditions"
              t)
       distinct);
  (* ORDER BY columns must be selected plain columns; they are applied
     to the final output rows (after aggregation, if any). *)
  let order_by =
    List.map
      (fun (r, desc) ->
         let table, col = resolve r in
         let target = (table, col.Column.name) in
         let pos =
           match aggregate with
           | None ->
             let rec loop i = function
               | [] -> None
               | p :: rest -> if p = target then Some i else loop (i + 1) rest
             in
             loop 0 projections
           | Some spec ->
             let rec loop i = function
               | [] -> None
               | `Group g :: rest ->
                 if List.nth spec.Aggregate.group_by g = target then Some i
                 else loop (i + 1) rest
               | `Agg _ :: rest -> loop (i + 1) rest
             in
             loop 0 spec.Aggregate.output
         in
         match pos with
         | Some i -> (i, desc)
         | None ->
           fail "ORDER BY column %s.%s must appear in the SELECT list" table
             col.Column.name)
      s.Ast.order_by
  in
  {
    tables = distinct;
    projections;
    selections = List.rev !selections;
    join_edges = List.rev !join_edges;
    aggregate;
    order_by;
    limit = s.Ast.limit;
    text = Ast.select_to_string s;
  }

let bind schema sql = bind_select schema (Parser.parse_select sql)

let output_types schema q =
  let column_ty (table, column) =
    let tbl = Schema.find_table schema table in
    if column = tbl.Schema.key then Value.T_int
    else (Schema.find_column tbl column).Column.ty
  in
  match q.aggregate with
  | None -> Array.of_list (List.map column_ty q.projections)
  | Some spec ->
    let aggs = Array.of_list spec.Aggregate.aggs in
    Array.of_list
      (List.map
         (function
           | `Group g -> column_ty (List.nth spec.Aggregate.group_by g)
           | `Agg a ->
             (match aggs.(a).Aggregate.a_fn, aggs.(a).Aggregate.a_arg with
              | Aggregate.Count, _ | _, None -> Value.T_int
              | Aggregate.Avg, Some _ -> Value.T_float
              | (Aggregate.Sum | Aggregate.Min | Aggregate.Max), Some arg -> column_ty arg))
         spec.Aggregate.output)
