module Value = Ghost_kernel.Value

(** Column definitions.

    GhostDB's security administrator tags each column [HIDDEN] or
    leaves it visible ([CREATE TABLE] with the extra keyword — Section
    2 of the paper). Foreign keys are ordinary integer columns carrying
    a [refs] target; the demo scenario hides them because they link
    sensitive records. *)

type visibility =
  | Visible  (** may live on the PC / public server *)
  | Hidden  (** lives only on the secure USB device *)

type t = {
  name : string;
  ty : Value.ty;
  visibility : visibility;
  refs : string option;  (** [Some table] for a foreign-key column *)
}

val make : ?visibility:visibility -> ?refs:string -> string -> Value.ty -> t
(** Defaults to [Visible]. A [refs] column must be [T_int]; raises
    [Invalid_argument] otherwise. *)

val is_hidden : t -> bool
val is_foreign_key : t -> bool
val pp : Format.formatter -> t -> unit
