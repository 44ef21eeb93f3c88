module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate

(** Name resolution and typing: turns parsed ASTs into schema objects
    and validated queries. *)

exception Bind_error of string

val ddl_to_schema : Ast.create_table list -> Schema.t
(** Builds the tree-schema database from [CREATE TABLE] statements.
    Exactly one [PRIMARY KEY] column per table (INTEGER) is required;
    [HIDDEN] markers become {!Ghost_relation.Column.Hidden}. Raises
    {!Bind_error} (or {!Schema.Not_a_tree}) on invalid input. *)

type query = {
  tables : string list;  (** FROM tables, resolved (no aliases) *)
  projections : (string * string) list;
      (** (table, column) base columns the SPJ engine must produce, in
          order. For an aggregate query these are the GROUP BY columns
          followed by the aggregate argument columns; the final output
          is shaped by [aggregate]. *)
  selections : Predicate.t list;
  join_edges : (string * string) list;
      (** (parent_table, child_table) foreign-key edges asserted by the
          WHERE clause *)
  aggregate : Aggregate.spec option;
      (** present when the SELECT list contains aggregates or the query
          has a GROUP BY *)
  order_by : (int * bool) list;
      (** (output column index, descending) — applied to the final
          output rows *)
  limit : int option;
  text : string;  (** the original surface form, for the spy trace *)
}

val bind_select : Schema.t -> Ast.select -> query
(** Resolves aliases and unqualified columns, coerces literals to the
    column type (strings become dates when the column is [DATE]),
    checks every join condition is a foreign-key edge of the schema
    tree, and checks the FROM tables are connected by the asserted
    edges. Raises {!Bind_error}. *)

val bind : Schema.t -> string -> query
(** [bind schema sql] — parse + bind in one step. *)

val output_types : Schema.t -> query -> Value.ty array
(** The column types of the query's output rows, in SELECT-list order:
    a key is [T_int]; for an aggregate, [COUNT] is [T_int], [AVG]
    [T_float], and [SUM], [MIN] and [MAX] take their argument's type. *)
