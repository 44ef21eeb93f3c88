module Cursor = Ghost_kernel.Cursor

(** Delta-varint encoding of strictly increasing identifier lists —
    the payload format of climbing-index entries. Compact (gaps, not
    absolutes) and streamable: decoding needs only a few bytes of
    look-ahead, so many lists can be merged in tiny RAM. *)

val encode : int array -> string
(** Raises [Invalid_argument] if the array is not strictly
    increasing or contains a negative id. *)

val cursor : Pager.Reader.t -> off:int -> len:int -> int Cursor.t
(** Streams the ids of the list stored at [off, off+len) of the
    segment. The cursor borrows the reader; do not close the reader
    while pulling. *)

val decode : bytes -> int array
(** Whole-list decode (load-time checks and tests). *)
