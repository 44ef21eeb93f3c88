module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Predicate = Ghost_relation.Predicate
module Trace = Ghost_device.Trace

(** The untrusted world: the public server / PC holding the visible
    part of the database.

    Primary keys and visible columns live here (Section 2 of the
    paper); hidden columns are stripped at load time and can never be
    queried — a predicate or stream request on a hidden column raises,
    as defense in depth on top of the planner's classification.

    The untrusted side is resource-rich, so evaluation is plain
    in-memory work; what matters is the {e traffic} it generates, which
    is recorded on the spy-visible links of the trace. *)

type t

exception Hidden_column of { table : string; column : string }

val create : Schema.t -> (string * Relation.tuple list) list -> t
(** [create schema tables_with_rows] keeps, for each table, the key and
    the visible columns only. Rows are full tuples (the split happens
    here, standing for the secure initial loading). *)

val schema : t -> Schema.t
val visible_table : t -> string -> Schema.table
(** The visible sub-schema of a table (key + visible columns). *)

val cardinality : t -> string -> int

val select_ids : t -> trace:Trace.t -> Predicate.t -> int array
(** Evaluates a visible selection and returns the sorted matching ids,
    recording the sub-query and its answer on the [Pc_to_server] /
    [Server_to_pc] links. Raises {!Hidden_column} if the predicate
    touches a hidden column. *)

val stream_column :
  t ->
  trace:Trace.t ->
  table:string ->
  column:string ->
  preds:Predicate.t list ->
  (int * Value.t) array
(** The sorted (id, value) projection stream for a visible column,
    restricted to tuples satisfying all [preds] (visible predicates on
    the same table). Traffic is recorded like {!select_ids}. *)

val append_rows : t -> string -> Relation.tuple list -> unit
(** Appends freshly inserted rows (their visible part) to a table.
    Raises [Invalid_argument] on arity/type/duplicate-key problems. *)

val delete_rows : t -> string -> int list -> unit
(** Removes rows by key; unknown keys are ignored. *)

val lookup : t -> table:string -> column:string -> int -> Value.t option
(** Direct visible-value access by key, without recording traffic —
    for the secure-setting reorganization, not for query processing.
    Raises {!Hidden_column} on hidden columns. *)
