module Value = Ghost_kernel.Value
module Sorted_ids = Ghost_kernel.Sorted_ids

type tuple = Value.t array

type t = {
  schema : Schema.table;
  mutable tuples : tuple array;
  by_key : (int, tuple) Hashtbl.t;
}

(* [index_row ~fn schema by_key i row] validates row [i] of the
   relation and indexes it by its key; [fn] names the caller in the
   error. *)
let index_row ~fn schema by_key =
  let arity = Schema.arity schema in
  let cols = Schema.all_columns schema in
  let fail fmt = Printf.ksprintf invalid_arg ("Relation.%s(%s): " ^^ fmt) fn schema.Schema.name in
  fun i row ->
    if Array.length row <> arity then
      fail "row %d has arity %d, expected %d" i (Array.length row) arity;
    List.iteri
      (fun j (c : Column.t) ->
         if not (Value.has_ty c.Column.ty row.(j)) then
           fail "row %d column %s type mismatch" i c.Column.name)
      cols;
    match row.(0) with
    | Value.Int k ->
      if Hashtbl.mem by_key k then fail "duplicate key %d" k;
      Hashtbl.add by_key k row
    | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
      fail "row %d key is not an integer" i

let create schema rows =
  let by_key = Hashtbl.create (List.length rows) in
  List.iteri (index_row ~fn:"create" schema by_key) rows;
  { schema; tuples = Array.of_list rows; by_key }

let key_of _t tuple =
  match tuple.(0) with
  | Value.Int k -> k
  | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ -> assert false

let append t rows =
  let n = Array.length t.tuples in
  let index = index_row ~fn:"append" t.schema t.by_key in
  let indexed = ref [] in
  (try
     List.iteri
       (fun i row ->
          index (n + i) row;
          indexed := row :: !indexed)
       rows
   with e ->
     (* nothing is applied from a failing batch *)
     List.iter (fun row -> Hashtbl.remove t.by_key (key_of t row)) !indexed;
     raise e);
  t.tuples <- Array.append t.tuples (Array.of_list rows)

let remove t keys =
  let gone = Sorted_ids.of_unsorted (List.filter (Hashtbl.mem t.by_key) keys) in
  if gone <> [||] then begin
    Array.iter (Hashtbl.remove t.by_key) gone;
    let kept = Array.make (Array.length t.tuples - Array.length gone) [||] in
    let j = ref 0 in
    Array.iter
      (fun row ->
         if not (Sorted_ids.member gone (key_of t row)) then begin
           kept.(!j) <- row;
           incr j
         end)
      t.tuples;
    t.tuples <- kept
  end

let schema t = t.schema
let cardinality t = Array.length t.tuples
let tuples t = t.tuples

let find t k = Hashtbl.find_opt t.by_key k

let value t tuple column = tuple.(Schema.column_index t.schema column)

let column_values t column =
  let idx = Schema.column_index t.schema column in
  let pairs = Array.map (fun row -> (key_of t row, row.(idx))) t.tuples in
  Array.sort (fun (a, _) (b, _) -> Int.compare a b) pairs;
  Array.map snd pairs

let select t p = List.filter p (Array.to_list t.tuples)

let select_ids t cmp column =
  let idx = Schema.column_index t.schema column in
  let ids =
    Array.to_list t.tuples
    |> List.filter_map (fun row ->
      if Predicate.eval cmp row.(idx) then Some (key_of t row) else None)
  in
  Sorted_ids.of_unsorted ids

let iter f t = Array.iter f t.tuples
