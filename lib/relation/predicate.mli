module Value = Ghost_kernel.Value

(** Selection predicates on a single column — the atoms of an SPJ
    [WHERE] clause after join conditions are separated out. *)

type comparison =
  | Eq of Value.t
  | Ne of Value.t
  | Lt of Value.t
  | Le of Value.t
  | Gt of Value.t
  | Ge of Value.t
  | Between of Value.t * Value.t  (** inclusive on both ends *)
  | In of Value.t list
  | Prefix of string
      (** SQL [LIKE 'abc%'] — string columns only; matches values whose
          CHAR(n)-normalized form starts with the prefix *)

type t = {
  table : string;
  column : string;
  cmp : comparison;
}

val make : table:string -> column:string -> comparison -> t

val prefix_upper : string -> string option
(** The least string greater than every string with the given prefix
    ([None] when the prefix is all 0xFF bytes — the range is then
    unbounded above). *)

val eval : comparison -> Value.t -> bool
(** Three-valued logic collapsed: comparisons with [Null] are false. *)

val holds : t -> Value.t -> bool
(** [eval p.cmp]. *)

val comparison_to_string : comparison -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
