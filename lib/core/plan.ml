module Value = Ghost_kernel.Value
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Aggregate = Ghost_sql.Aggregate
module Oblivious = Ghost_oblivious.Oblivious

type hidden_strategy =
  | H_index
  | H_check

type visible_strategy =
  | V_pre
  | V_post
  | V_cross_pre
  | V_cross_post

let hidden_strategy_name = function
  | H_index -> "index"
  | H_check -> "check"

let visible_strategy_name = function
  | V_pre -> "pre"
  | V_post -> "post"
  | V_cross_pre -> "cross-pre"
  | V_cross_post -> "cross-post"

type hidden_pred = {
  h_pred : Predicate.t;
  h_strategy : hidden_strategy;
}

type group = {
  g_table : string;
  g_hidden : hidden_pred list;
  g_visible : Predicate.t list;
  g_visible_strategy : visible_strategy;
  g_borrowed : (string * Predicate.t) list;
}

type t = {
  query : Bind.query;
  root : string;
  groups : group list;
  label : string;
  oblivious : Oblivious.mode;
}

let group_label g =
  let hidden =
    List.map
      (fun h ->
         Printf.sprintf "%s.%s:%s" g.g_table h.h_pred.Predicate.column
           (hidden_strategy_name h.h_strategy))
      g.g_hidden
  in
  let visible =
    match g.g_visible with
    | [] -> []
    | ps ->
      [
        Printf.sprintf "%s{%s}:%s%s" g.g_table
          (String.concat "," (List.map (fun p -> p.Predicate.column) ps))
          (visible_strategy_name g.g_visible_strategy)
          (match g.g_borrowed with
           | [] -> ""
           | bs ->
             "+"
             ^ String.concat "+"
                 (List.map (fun (t, p) -> t ^ "." ^ p.Predicate.column) bs));
      ]
  in
  String.concat " " (hidden @ visible)

let mode_suffix = function
  | Oblivious.Off -> ""
  | Oblivious.Pad -> " [padded]"
  | Oblivious.Full -> " [oblivious]"

let make ?(oblivious = Oblivious.Off) ~query ~root groups =
  let label =
    (match groups with
     | [] -> "scan"
     | _ -> String.concat " | " (List.map group_label groups))
    ^ mode_suffix oblivious
  in
  { query; root; groups; label; oblivious }

let with_mode t mode =
  if t.oblivious = mode then t
  else make ~oblivious:mode ~query:t.query ~root:t.root t.groups

let indexed_hidden g = List.filter (fun h -> h.h_strategy = H_index) g.g_hidden

let pre_filtered g =
  g.g_visible <> []
  &&
  match g.g_visible_strategy with
  | V_pre | V_cross_pre -> true
  | V_post | V_cross_post -> false

let post_filtered g = g.g_visible <> [] && not (pre_filtered g)

let crossed g =
  g.g_visible <> []
  &&
  match g.g_visible_strategy with
  | V_cross_pre -> indexed_hidden g <> [] || g.g_borrowed <> []
  | V_cross_post -> indexed_hidden g <> []
  | V_pre | V_post -> false

let group_produces_pre_source g = indexed_hidden g <> [] || pre_filtered g

(* Pre-filters below the root were intersected in Merge+Index and need
   no SKT level; a projection, a Bloom test or a column check below the
   root reads that table's id off the candidate's SKT row. *)
let reads_skt t =
  t.oblivious = Oblivious.Full
  || List.exists (fun (table, _) -> table <> t.root) t.query.Bind.projections
  || List.exists
       (fun g ->
          g.g_table <> t.root
          && (post_filtered g || List.exists (fun h -> h.h_strategy = H_check) g.g_hidden))
       t.groups

(* The delta log's runs keep the root's own hidden values on value
   pages apart from the id pages; only a root hidden column, tested or
   projected, needs them, and [Full] reads the whole log. *)
let reads_delta_values schema t =
  let hidden table column =
    let tbl = Schema.find_table schema table in
    column <> tbl.Schema.key && Column.is_hidden (Schema.find_column tbl column)
  in
  t.oblivious = Oblivious.Full
  || List.exists (fun g -> g.g_table = t.root && g.g_hidden <> []) t.groups
  || List.exists
       (fun (table, column) -> table = t.root && hidden table column)
       t.query.Bind.projections

type bitmap_fill =
  | Index_lists
  | Column_scan

let delta_bitmap t g h =
  if g.g_table = t.root then None
  else if t.oblivious = Oblivious.Full then Some Column_scan
  else if h.h_strategy = H_index then Some Index_lists
  else None

(* One hidden predicate's root-level lists are disjoint, so their
   directory counts sum to the COUNT( * ) it asks for. *)
let count_source ~tombstones t =
  let hidden =
    List.concat_map (fun g -> List.map (fun h -> (g.g_table, h)) g.g_hidden) t.groups
  in
  match t.query.Bind.aggregate, hidden with
  | ( Some
        {
          Aggregate.group_by = [];
          aggs = [ { Aggregate.a_fn = Aggregate.Count; a_arg = None; _ } ];
          _;
        },
      [ (table, { h_strategy = H_index; h_pred }) ] )
    when tombstones = 0
         && t.oblivious <> Oblivious.Full
         && List.for_all (fun g -> g.g_visible = [] && g.g_borrowed = []) t.groups ->
    Some (table, h_pred)
  | _ -> None

let visible_projections schema t =
  List.filter_map
    (fun (table, column) ->
       let tbl = Schema.find_table schema table in
       if column = tbl.Schema.key then None
       else begin
         let col = Schema.find_column tbl column in
         if Column.is_hidden col then None else Some (table, column, col.Column.ty)
       end)
    t.query.Bind.projections
  |> List.sort_uniq compare

(* Derived from the schema and the projection list alone: it sizes
   padded emission, so it must not depend on the data. Mirrors the
   baseline accounting. *)
let emit_row_width schema t =
  match t.query.Bind.aggregate with
  | Some _ ->
    Array.fold_left (fun acc ty -> acc + Value.ty_width ty) 0 (Bind.output_types schema t.query)
  | None ->
    List.fold_left
      (fun acc (table, column) ->
         let tbl = Schema.find_table schema table in
         if column = tbl.Schema.key then acc
         else acc + Value.ty_width (Schema.find_column tbl column).Column.ty)
      (4 * List.length t.query.Bind.projections)
      t.query.Bind.projections

let visible_selections schema t table =
  List.filter
    (fun (p : Predicate.t) ->
       p.Predicate.table = table
       &&
       let tbl = Schema.find_table schema table in
       not (Column.is_hidden (Schema.find_column tbl p.Predicate.column)))
    t.query.Bind.selections

let describe t =
  let buf = Buffer.create 256 in
  Printf.bprintf buf "plan [%s] rooted at %s\n" t.label t.root;
  (match t.oblivious with
   | Oblivious.Off -> ()
   | Oblivious.Pad ->
     Printf.bprintf buf
       "  pad-only: shipments, streams and the result cardinality padded to \
        power-of-two buckets\n"
   | Oblivious.Full ->
     Printf.bprintf buf
       "  oblivious: full-cardinality padding + bound-depth scans; the \
        spy-visible trace depends only on schema and public bounds\n");
  List.iter
    (fun g ->
       Printf.bprintf buf "  group %s:\n" g.g_table;
       List.iter
         (fun h ->
            Printf.bprintf buf "    hidden %s via %s\n"
              (Predicate.to_string h.h_pred)
              (match h.h_strategy with
               | H_index -> "climbing index (pre-filter)"
               | H_check -> "per-candidate column check (post-filter)"))
         g.g_hidden;
       (match g.g_visible with
        | [] -> ()
        | ps ->
          Printf.bprintf buf "    visible {%s} via %s\n"
            (String.concat "; " (List.map Predicate.to_string ps))
            (match g.g_visible_strategy with
             | V_pre -> "shipped id list climbed to the root (pre-filter)"
             | V_post -> "Bloom filter probe after hidden joins (post-filter)"
             | V_cross_pre ->
               "id list intersected with hidden index lists, then climbed (cross-pre)"
             | V_cross_post ->
               "Bloom filter over ids intersected with hidden index lists (cross-post)"));
       List.iter
         (fun (t, p) ->
            Printf.bprintf buf "    borrowed from descendant %s: %s (intersected at %s \
                                level before the climb)\n"
              t (Predicate.to_string p) g.g_table)
         g.g_borrowed)
    t.groups;
  if not (List.exists group_produces_pre_source t.groups) then
    Printf.bprintf buf "  (no pre-filter source: sequential scan of root ids)\n";
  Buffer.contents buf

let validate t =
  List.iter
    (fun g ->
       (match g.g_visible_strategy with
        | (V_cross_pre | V_cross_post) when g.g_visible <> [] ->
          if indexed_hidden g = [] && g.g_borrowed = [] then
            invalid_arg
              (Printf.sprintf
                 "Plan.validate: cross strategy on %s without an indexed hidden \
                  predicate (own or borrowed)"
                 g.g_table)
        | V_pre | V_post | V_cross_pre | V_cross_post -> ());
       if g.g_borrowed <> [] && g.g_visible_strategy <> V_cross_pre then
         invalid_arg
           (Printf.sprintf "Plan.validate: borrowed lists on %s require cross-pre"
              g.g_table);
       if g.g_hidden = [] && g.g_visible = [] then
         invalid_arg "Plan.validate: empty group")
    t.groups
