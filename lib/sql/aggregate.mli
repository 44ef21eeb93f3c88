module Value = Ghost_kernel.Value

(** Aggregation semantics, shared by the device executor and the
    trusted reference evaluator.

    A bound aggregate query first runs as an ordinary SPJ plan
    producing {e base rows} — the GROUP BY columns followed by the
    aggregate argument columns — and is then folded by {!apply}. *)

type fn =
  | Count  (** the star-count when the argument is [None] *)
  | Sum
  | Avg
  | Min
  | Max

type agg = {
  a_fn : fn;
  a_arg : (string * string) option;  (** resolved argument column *)
  a_arg_pos : int option;  (** its position in the base row *)
}

type spec = {
  group_by : (string * string) list;  (** base-row positions 0..k-1 *)
  aggs : agg list;
  output : [ `Group of int | `Agg of int ] list;
      (** how to build an output row in SELECT-list order *)
}

val of_ast_fn : Ast.agg_fn -> fn

val apply : spec -> Value.t array list -> Value.t array list
(** Groups the base rows on the first [List.length group_by] values and
    folds each aggregate. SQL semantics: [COUNT] never counts NULLs
    (except the star-count); [SUM]/[AVG]/[MIN]/[MAX] ignore NULLs and
    yield NULL on an empty set; with no GROUP BY and at least one
    aggregate, exactly one row is returned even for empty input.
    Output rows follow [output]; group order is unspecified. *)
