module Value = Ghost_kernel.Value

(** In-memory relations.

    Used on the untrusted side (the PC and public server have no
    resource constraints) and by the reference evaluator the test suite
    compares device plans against. Device-side data never lives in this
    form — it is laid out on the Flash store. *)

type tuple = Value.t array
(** Aligned with [Schema.all_columns]: key first. *)

type t

val create : Schema.table -> tuple list -> t
(** Validates arity and column types; rows are indexed by their key
    value. Raises [Invalid_argument] on arity/type mismatch or
    duplicate keys. *)

val append : t -> tuple list -> unit
(** Appends rows in place, validating and indexing only the new ones:
    the same checks and errors as {!create}, rows numbered by their
    position in the relation. Nothing is applied from a failing
    batch. *)

val remove : t -> int list -> unit
(** Removes the rows with these keys in place, keeping the order of
    the rest; unknown keys are ignored. *)

val schema : t -> Schema.table
val cardinality : t -> int
val tuples : t -> tuple array

val key_of : t -> tuple -> int
(** The (integer) primary key of a tuple. *)

val find : t -> int -> tuple option
(** Lookup by primary key. *)

val value : t -> tuple -> string -> Value.t
(** [value t tuple column]. Raises [Not_found] on an unknown column. *)

val column_values : t -> string -> Value.t array
(** In key order. *)

val select : t -> (tuple -> bool) -> tuple list

val select_ids : t -> Predicate.comparison -> string -> int array
(** [select_ids t cmp column] — sorted keys of tuples whose [column]
    satisfies [cmp]. *)

val iter : (tuple -> unit) -> t -> unit
