(** The sealed-page codec shared by the crash-safe logs and the sorted
    log runs.

    A sealed page is a fixed-size header followed by a payload:

    {v tag (u32) | caller fields ... | crc32 (u32) | payload v}

    The tag is four ASCII bytes at offset 0 naming the page kind (the
    big-endian u32 of ["GDLT"], say). The CRC-32 (see
    {!Ghost_kernel.Codec.crc32}) fills the header's last four bytes and
    covers the header before it plus the payload, so a page torn by a
    power cut or corrupted by bit-rot past ECC fails {!verify}. The
    caller owns every field between the tag and the CRC. *)

val seal : tag:string -> header_bytes:int -> (bytes -> unit) -> string -> bytes
(** [seal ~tag ~header_bytes put payload] — the page image: [tag],
    then [put b] writes the caller's fields into [b] at offsets
    [4 .. header_bytes - 5], then [payload] at [header_bytes], and the
    CRC last. *)

val verify : tag:string -> header_bytes:int -> payload_bytes:int -> bytes -> bool
(** [verify ~tag ~header_bytes ~payload_bytes b] — [b] starts with
    [tag] and its stored CRC matches the header and the first
    [payload_bytes] bytes of payload. The caller reads the payload
    length from its own fields and bounds it before asking. *)
