module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Cache = Ghost_device.Page_cache

(** Byte segments over Flash pages.

    A segment is an immutable byte range laid out over a list of Flash
    pages (not necessarily contiguous). All on-flash structures —
    column stores, SKT rows, climbing-index directories and blobs —
    are segments. Writers are used only at load time (the device is
    loaded in a secure setting, Section 2 of the paper); readers are
    the query-time access path and charge every access to the Flash
    cost model and, when given an arena, their buffer to device RAM.

    On an {!Flash.authenticated} region, writers transparently seal
    every page with a CRC-32 trailer (so a page carries
    [page_size - auth_trailer_bytes] payload bytes) and readers verify
    each cache-miss page fill end-to-end, raising
    {!Flash.Integrity_error} on a mismatch. Logical offsets are
    unchanged either way — segments address payload bytes, never
    trailers. *)

type segment = {
  pages : int array;  (** flash page ids, in order *)
  length : int;  (** logical byte length *)
}

val segment_bytes : segment -> int
(** = [length]. *)

(** {2 Writing (load time)} *)

module Writer : sig
  type t

  val create : Flash.t -> t
  val append_bytes : t -> bytes -> unit
  val append_string : t -> string -> unit
  val append_buffer : t -> Buffer.t -> unit
  val position : t -> int
  (** Bytes appended so far (= offset of the next byte). *)

  val finish : t -> segment
  (** Flushes the partial last page. The writer must not be used
      afterwards. *)
end

val write_segment : Flash.t -> string -> segment
(** One-shot convenience. *)

(** {2 Reading (query time)} *)

module Reader : sig
  type t

  val open_ :
    ?ram:Ram.t -> ?buffer_bytes:int -> ?paged:bool -> ?cache:Cache.t -> Flash.t ->
    segment -> t
  (** [buffer_bytes] (default one page) is the read-buffer size charged
      to [ram] while the reader is open. Smaller buffers let many
      readers coexist in tiny RAM at the price of more Flash seeks.
      When [cache] fronts the same Flash region, page fills are served
      through it: a resident page costs nothing, a miss fills a frame
      with one full-page read. A cache over a different Flash region is
      ignored.

      [paged] (default false) aligns the window to pages: a miss fills
      the payload of the page holding the offset, and a read running
      past the window's end keeps its head and fills the next page. Reads
      in offset order then cost one Flash read per page of the segment,
      however the values straddle page boundaries. A paged reader needs
      a [buffer_bytes] of at least one page; raises [Invalid_argument]
      otherwise. *)

  val read : t -> off:int -> len:int -> bytes
  (** Random access; spans pages transparently. Consecutive reads from
      the buffered window cost no Flash access. Raises
      [Invalid_argument] out of bounds. *)

  val read_into : t -> off:int -> len:int -> bytes -> pos:int -> unit
  (** Zero-copy variant of {!read}: fills [dst.(pos .. pos+len-1)] in
      place so hot point-read paths can reuse one scratch buffer
      instead of allocating per access. Same window/caching behaviour
      and bounds checks as {!read}. *)

  val length : t -> int
  val close : t -> unit
  (** Releases the RAM buffer. Idempotent. *)
end

val with_reader :
  ?ram:Ram.t -> ?buffer_bytes:int -> ?cache:Cache.t -> Flash.t -> segment ->
  (Reader.t -> 'a) -> 'a
