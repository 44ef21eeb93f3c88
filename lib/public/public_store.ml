module Value = Ghost_kernel.Value
module Sorted_ids = Ghost_kernel.Sorted_ids
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Predicate = Ghost_relation.Predicate
module Trace = Ghost_device.Trace

type t = {
  schema : Schema.t;
  visible : (string, Relation.t) Hashtbl.t;  (* visible sub-relations *)
  sub_schemas : (string, Schema.table) Hashtbl.t;
}

exception Hidden_column of { table : string; column : string }

let visible_sub_schema (tbl : Schema.table) =
  Schema.table ~name:tbl.Schema.name ~key:tbl.Schema.key
    (List.filter (fun c -> not (Column.is_hidden c)) tbl.Schema.columns)

let strip_row (tbl : Schema.table) row =
  let keep =
    Array.of_list
      (true
       :: List.map (fun (c : Column.t) -> not (Column.is_hidden c)) tbl.Schema.columns)
  in
  let out = ref [] in
  Array.iteri (fun i v -> if keep.(i) then out := v :: !out) row;
  Array.of_list (List.rev !out)

let create schema tables_with_rows =
  let visible = Hashtbl.create 8 in
  let sub_schemas = Hashtbl.create 8 in
  List.iter
    (fun (name, rows) ->
       let tbl = Schema.find_table schema name in
       let sub = visible_sub_schema tbl in
       Hashtbl.replace sub_schemas name sub;
       Hashtbl.replace visible name
         (Relation.create sub (List.map (strip_row tbl) rows)))
    tables_with_rows;
  (* every table of the schema must be present *)
  List.iter
    (fun (tbl : Schema.table) ->
       if not (Hashtbl.mem visible tbl.Schema.name) then
         invalid_arg
           (Printf.sprintf "Public_store.create: missing rows for table %s"
              tbl.Schema.name))
    (Schema.tables schema);
  { schema; visible; sub_schemas }

let schema t = t.schema
let visible_table t name = Hashtbl.find t.sub_schemas name
let cardinality t name = Relation.cardinality (Hashtbl.find t.visible name)

let check_visible t ~table ~column =
  let tbl = Schema.find_table t.schema table in
  match Schema.find_column tbl column with
  | col -> if Column.is_hidden col then raise (Hidden_column { table; column })
  | exception Not_found -> raise (Hidden_column { table; column })

let record_subquery ~trace text =
  Trace.record trace Trace.Pc_to_server (Trace.Query_text text)
    ~bytes:(String.length text)

let select_ids t ~trace (p : Predicate.t) =
  check_visible t ~table:p.Predicate.table ~column:p.Predicate.column;
  let rel = Hashtbl.find t.visible p.Predicate.table in
  record_subquery ~trace
    (Printf.sprintf "SELECT %s FROM %s WHERE %s"
       (Relation.schema rel).Schema.key p.Predicate.table (Predicate.to_string p));
  let ids = Relation.select_ids rel p.Predicate.cmp p.Predicate.column in
  Trace.record trace Trace.Server_to_pc
    (Trace.Id_list { table = p.Predicate.table; count = Array.length ids })
    ~bytes:(4 * Array.length ids);
  ids

let stream_column t ~trace ~table ~column ~preds =
  check_visible t ~table ~column;
  List.iter
    (fun (p : Predicate.t) ->
       if p.Predicate.table <> table then
         invalid_arg "Public_store.stream_column: predicate on another table";
       check_visible t ~table ~column:p.Predicate.column)
    preds;
  let rel = Hashtbl.find t.visible table in
  record_subquery ~trace
    (Printf.sprintf "SELECT %s, %s FROM %s%s" (Relation.schema rel).Schema.key column
       table
       (match preds with
        | [] -> ""
        | ps ->
          " WHERE " ^ String.concat " AND " (List.map Predicate.to_string ps)));
  let matches =
    Relation.select rel (fun row ->
      List.for_all
        (fun (p : Predicate.t) ->
           Predicate.holds p (Relation.value rel row p.Predicate.column))
        preds)
  in
  let pairs =
    List.map
      (fun row -> (Relation.key_of rel row, Relation.value rel row column))
      matches
    |> Array.of_list
  in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
  let width = Value.ty_width (Schema.find_column (Relation.schema rel) column).Column.ty in
  Trace.record trace Trace.Server_to_pc
    (Trace.Value_stream { table; column; count = Array.length pairs })
    ~bytes:((4 + width) * Array.length pairs);
  pairs

let append_rows t name rows =
  let tbl = Schema.find_table t.schema name in
  Relation.append (Hashtbl.find t.visible name) (List.map (strip_row tbl) rows)

let delete_rows t name ids = Relation.remove (Hashtbl.find t.visible name) ids

let lookup t ~table ~column id =
  check_visible t ~table ~column;
  let rel = Hashtbl.find t.visible table in
  Option.map (fun row -> Relation.value rel row column) (Relation.find rel id)

