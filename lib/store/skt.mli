module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

(** Subtree Key Tables — the paper's generalized join indexes.

    [SKT_R] materializes, for every tuple of the subtree root [R], the
    identifiers of the (unique) joining tuple in each table of [R]'s
    subtree, sorted by [R]'s identifier, so a query can associate,
    e.g., a prescription with its patient in a single step (Section 4).

    Rows are packed. The root id is the row's position and is not
    stored; every other level's id takes [Codec.bits_for n] bits, [n]
    being that level's public cardinality, most significant bit first,
    and a row pads to whole bytes. The widths are thus functions of
    public table cardinalities alone, the rule delta-log run id pages
    follow. With dense root ids the row for id [k] sits at
    [(k-1) * row_width]: probing the SKT after Pre-filtering reads the
    [row_width] bytes at that offset through the reader's window. *)

type t

val build :
  Flash.t -> root:string -> levels:string list -> max_ids:int list ->
  rows:int array array -> t
(** [levels] — table names, root first (preorder of the subtree), with
    at least one level below the root; [max_ids] — the largest id each
    level below the root may hold (its table's cardinality, at most
    [2^32 - 1]), aligned with [List.tl levels]; [rows.(i)] — the ids
    for root id [i+1], aligned with [levels] (so [rows.(i).(0) = i+1]).
    Load-time only. Raises [Invalid_argument] on misaligned input and
    on an id outside [1 .. max_id] of its level: no id is ever
    truncated. *)

val root : t -> string
val levels : t -> string list
val level_index : t -> string -> int
(** Raises [Not_found]. *)

val root_count : t -> int

val row_width : t -> int
(** Bytes of one packed row: the levels' bit widths below the root,
    summed and rounded up to whole bytes. *)

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
(** Full row for a root id, root first: the one allocation is the
    returned array. Raises [Invalid_argument] outside
    [1 .. root_count]. *)
