module Value = Ghost_kernel.Value
module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Predicate = Ghost_relation.Predicate

(** Fixed-width column stores for the hidden part of the database.

    Identifiers are dense (1..N — the loader assigns them), so the
    value of tuple [id] lives at byte [(id-1) * width] of the segment:
    point access is a single partial-page Flash read, which is what
    makes per-candidate hidden checks (Post-filtering of hidden
    predicates) affordable. *)

type t

val build : Flash.t -> Value.ty -> Value.t array -> t
(** [build flash ty values] — [values.(i)] is the value of id [i+1].
    Load-time only (not RAM-constrained). *)

val ty : t -> Value.ty
val count : t -> int
val width : t -> int
val size_bytes : t -> int
val segment : t -> Pager.segment

val pages : t -> int list
(** Flash pages of the column segment, in layout order. *)

type reader

val open_reader :
  ?ram:Ram.t -> ?buffer_bytes:int -> ?paged:bool -> ?cache:Pager.Cache.t -> t -> reader
(** [paged] aligns the read window to pages and [cache] routes page
    fills through the device's shared page cache (see
    {!Pager.Reader.open_}). *)

val close_reader : reader -> unit

val get : reader -> int -> Value.t
(** Value of the given id. Raises [Invalid_argument] out of range. *)

val scan : reader -> (int * Value.t) Cursor.t
(** All (id, value) pairs in id order — a sequential Flash scan. *)

val matching_ids : reader -> Predicate.comparison -> int Cursor.t
(** Ids whose value satisfies the comparison, in increasing order (a
    filtering scan: the fallback when a hidden column has no climbing
    index). *)
