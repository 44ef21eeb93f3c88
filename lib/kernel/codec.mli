(** Low-level binary encodings shared by the on-flash structures.

    All multi-byte fixed-width integers are big-endian. Varints are
    LEB128 (7 bits per byte, high bit = continuation). *)

val put_u32 : bytes -> int -> int -> unit
(** [put_u32 b off v] writes [v land 0xFFFFFFFF]. *)

val get_u32 : bytes -> int -> int

val bits_for : int -> int
(** Bits needed to hold the non-negative [n], at least 1. Raises
    [Invalid_argument] on negative input. *)

val put_bits : bytes -> bit:int -> width:int -> int -> unit
(** [put_bits b ~bit ~width v] writes [v] into the [width] bits of [b]
    starting at bit offset [bit], most significant bit first (bit 0 is
    the top bit of byte 0); the surrounding bits are kept. [width] is
    1 to 32. Raises [Invalid_argument] when [v] is negative or does
    not fit [width] bits: a value is never truncated. *)

val get_bits : bytes -> bit:int -> width:int -> int
(** The [width]-bit field {!put_bits} wrote at [bit]. Never reads past
    the end of [b]. *)

val put_u64 : bytes -> int -> int -> unit
val get_u64 : bytes -> int -> int

val varint_size : int -> int
(** Encoded size in bytes of a non-negative varint. *)

val put_varint : Buffer.t -> int -> unit
(** Appends a non-negative varint. Raises [Invalid_argument] on
    negative input. *)

val get_varint : bytes -> int -> int * int
(** [get_varint b off] is [(value, next_off)]. *)

val put_varint_into : bytes -> int -> int -> int
(** [put_varint_into b off v] writes a non-negative varint directly at
    [off] and returns the offset past it — the zero-allocation
    counterpart of {!put_varint} for encoders that own a reusable
    buffer. The caller guarantees [varint_size v] bytes of room.
    Raises [Invalid_argument] on negative input. *)

val get_varint_bounded : bytes -> int -> stop:int -> (int * int) option
(** Bounds- and overflow-checked {!get_varint} for untrusted input:
    reads only within [off, stop), rejects encodings wider than 63
    value bits, and returns [None] instead of reading past the limit
    on a truncated or overlong varint. *)

val put_zigzag : Buffer.t -> int -> unit
(** Signed varint via zigzag mapping. *)

val get_zigzag : bytes -> int -> int * int

val put_string16 : Buffer.t -> string -> unit
(** Length-prefixed (u16) string, for full-key verification records.
    Raises [Invalid_argument] if longer than 65535 bytes. *)

val get_string16 : bytes -> int -> string * int

val crc32 : ?crc:int -> bytes -> pos:int -> len:int -> int
(** CRC-32 (IEEE) of [len] bytes starting at [pos]. Pass a previous
    result as [?crc] to checksum discontiguous ranges incrementally.
    Used by the crash-safe log pages to detect torn or corrupted
    programs. *)
