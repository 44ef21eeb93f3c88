module Flash = Ghost_flash.Flash

(** A crash-safe page log of fixed-width records.

    The common machinery under the delta log's L0 pages and the
    tombstone log. NAND forbids in-place writes, so every append
    programs a {e fresh} page holding the whole tail; the superseded
    tail program is dead space, tracked as a stale tail because after a
    torn program it still holds every acknowledged record. A tail that
    reaches [records_per_page] becomes a full page and the next append
    opens a new tail.

    Records carry implicit sequence numbers: the log's base sequence
    (records already released, see {!release}) plus their position.
    A [Checksummed] page seals them with {!Sealed_page} under a 20-byte
    header [tag | first_seq (u64) | count (u32) | crc32], which is what
    {!recover} reads back. See DESIGN.md section 9. *)

type durability =
  | Plain  (** raw records, no torn-write detection (the seed format) *)
  | Checksummed
      (** every page carries a sealed header — tag, the sequence number
          of its first record, a record count and a CRC-32 over header
          and payload — so a page torn by a power cut or corrupted by
          uncorrected bit-rot is detectable, at the price of [20] bytes
          per page *)

type t

val create :
  ?durability:durability ->
  ?cache:Ghost_device.Page_cache.t ->
  Flash.t ->
  tag:string ->
  record_bytes:int ->
  t
(** [tag] — the four-byte page tag of a [Checksummed] log. [cache] —
    the device's shared page cache; each append invalidates the page it
    programs there, since {!Flash.append} recycles erased pages the
    cache may still hold. Raises [Invalid_argument] when a record
    (plus header) exceeds a page. *)

val durability : t -> durability
val records_per_page : t -> int

val count : t -> int
(** Records ever appended, released ones included. *)

val size_bytes : t -> int
(** Record bytes of the unreleased pages (full pages + current tail). *)

val dead_bytes : t -> int
(** Record bytes stranded in superseded tail programs. *)

val page_count : t -> int
(** Unreleased full pages plus the live tail program. *)

val full_pages : t -> int list
(** Unreleased full pages, oldest first. *)

val append : t -> string -> unit
(** Appends one record, programming the tail into a fresh page. An
    append is {e acknowledged} only when this call returns: if the
    program is torn by a power cut, [Flash.Power_cut] propagates, the
    record is not durable, and the log refuses further appends until
    {!recover} runs. Raises [Invalid_argument] while the log
    {!needs_recovery}. *)

val release : t -> int -> unit
(** [release t n] drops the [n] oldest full pages from the log (their
    records now live elsewhere) and advances the base sequence past
    them. *)

val full_page_records : t -> int -> string list
(** Metered read of one full page's records, oldest first. *)

val iter_pages : t -> (bytes -> int -> unit) -> unit
(** Metered read of every unreleased page, oldest first: [f b n] gets
    the payload of a page holding [n] records. *)

(** {2 Crash safety} *)

val needs_recovery : t -> bool
(** True after a power cut tore a program and until {!recover}. *)

val note_power_cut : t -> int -> unit
(** [note_power_cut t page] — a program on behalf of this log's owner
    tore [page]: the log refuses appends until {!recover}, which counts
    the page as torn. *)

type recovery = {
  recovered : int;  (** records in the log after recovery *)
  lost : int;  (** in-memory records dropped (never acknowledged) *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : ?on_record:(string -> unit) -> t -> recovery
(** Post-crash scan (metered): keeps the longest prefix of full pages
    that are checksum-valid and continue the base sequence, then the
    newest tail program that continues that prefix — exactly the
    acknowledged appends, no phantom records. A damaged full page
    truncates the log there, tail included. [on_record] sees every
    durable record, oldest first, as the walk parses it. Only a
    [Checksummed] log can recover; raises [Invalid_argument] on a
    [Plain] one. Idempotent; clears {!needs_recovery}. *)
