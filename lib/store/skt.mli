module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

(** Subtree Key Tables — the paper's generalized join indexes.

    [SKT_R] materializes, for every tuple of the subtree root [R], the
    identifiers of the (unique) joining tuple in each table of [R]'s
    subtree, sorted by [R]'s identifier. With dense root ids the row
    for id [k] sits at [(k-1) * row_width]: probing an SKT after
    Pre-filtering is one partial-page read per surviving id, and a
    query can associate, e.g., a prescription with its patient in a
    single step (Section 4). *)

type t

val build : Flash.t -> root:string -> levels:string list -> rows:int array array -> t
(** [levels] — table names, root first (preorder of the subtree);
    [rows.(i)] — the ids for root id [i+1], aligned with [levels]
    (so [rows.(i).(0) = i+1]). Load-time only. Raises
    [Invalid_argument] on misaligned input. *)

val root : t -> string
val levels : t -> string list
val level_index : t -> string -> int
(** Raises [Not_found]. *)

val root_count : t -> int
val row_width : t -> int
val size_bytes : t -> int

val pages : t -> int list
(** Flash pages of the row segment, in layout order (the scrubber's
    and anti-entropy's walk list). *)

type reader

val open_reader :
  ?ram:Ram.t -> ?buffer_bytes:int -> ?paged:bool -> ?cache:Pager.Cache.t -> t -> reader
(** [paged] aligns the read window to pages and [cache] routes page
    fills through the device's shared page cache (see
    {!Pager.Reader.open_}). *)

val close_reader : reader -> unit

val get : reader -> int -> int array
(** Full row for a root id. *)

val get_level : reader -> int -> level:int -> int
(** One id of the row — a 4-byte partial read. *)

val scan : reader -> int array Cursor.t
(** All rows in root-id order (sequential Flash scan). *)
