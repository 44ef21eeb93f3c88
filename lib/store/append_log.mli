module Flash = Ghost_flash.Flash

(** A crash-safe page log of fixed-width records.

    The common machinery under the delta log's L0 pages and the
    tombstone log. NAND forbids in-place writes, so an append programs
    a {e fresh} page holding the whole tail; the superseded tail
    program is dead space, tracked as a stale tail because after a
    torn program it still holds every acknowledged record. A tail that
    reaches [records_per_page] becomes a full page and the next program
    opens a new tail. An append takes a batch of records and programs
    once per page it fills plus once for its last partial page (group
    commit), so a write batch costs one program per page it touches.

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
    the device's shared page cache; each program invalidates the page
    it writes there, since {!Flash.append} recycles erased pages the
    cache may still hold. Raises [Invalid_argument] when a record
    (plus header) exceeds a page. *)

val durability : t -> durability
val records_per_page : t -> int

val count : t -> int
(** Records ever appended, released ones included. After a torn
    program and until {!recover} it still counts the torn program's
    records. *)

val acknowledged : t -> int
(** Records whose program completed, released ones included: {!count}
    minus the torn program's new records after a power cut. A caller
    whose batch was torn mirrors exactly the records between its
    [acknowledged] before the batch and after the [Power_cut]. *)

val size_bytes : t -> int
(** Record bytes of the unreleased pages (full pages + current tail). *)

val dead_bytes : t -> int
(** Record bytes stranded in superseded tail programs. *)

val page_count : t -> int
(** Unreleased full pages plus the live tail program. *)

val full_pages : t -> int list
(** Unreleased full pages, oldest first. *)

val pages : t -> int list
(** {!full_pages}, then the live tail program: every page a scan
    reads. *)

val append : t -> string list -> unit
(** Appends a batch of records, oldest first. The tail fills a page at
    a time: each page the batch completes is programmed once, and the
    batch's last partial page once more, so a one-record batch programs
    exactly the tail page. Each program {e acknowledges} the records it
    carries when it completes: if a power cut tears one,
    [Flash.Power_cut] propagates, the records of the completed programs
    are durable ({!acknowledged}), the torn program's records are not,
    the rest of the batch is never written, and the log refuses further
    appends until {!recover} runs. An empty batch programs nothing.
    Raises [Invalid_argument] while the log {!needs_recovery}. *)

val release : t -> int -> unit
(** [release t n] drops the [n] oldest full pages from the log (their
    records now live elsewhere) and advances the base sequence past
    them. *)

val full_page_records : t -> int -> string list
(** Metered read of one full page's records, oldest first. *)

val page_intact : t -> page:int -> bool option
(** [None] when [page] is not a live page of a [Checksummed] log;
    otherwise whether a fresh full-page read of it (metered, straight
    from the cells) passes the seal, record count and sequence checks
    a verified read makes — how a caught {!Flash.Integrity_error} on a
    log page is classified. *)

val iter_pages : t -> (bytes -> int -> unit) -> unit
(** Metered read of every unreleased page, oldest first: [f b n] gets
    the payload of a page holding [n] records.

    Both reads fetch only the payload, except that a [Checksummed] log
    on an authenticated Flash ([Device.config.verify_pages]) reads
    whole pages and checks each one's seal, record count and sequence
    number: a mismatch raises {!Flash.Integrity_error} naming the
    page, so damaged bytes never come back as records. *)

(** {2 Crash safety} *)

val needs_recovery : t -> bool
(** True after a power cut tore a program and until {!recover}. *)

val note_power_cut : t -> int -> unit
(** [note_power_cut t page] — a program on behalf of this log's owner
    tore [page]: the log refuses appends until {!recover}, which counts
    the page as torn. *)

type recovery = {
  recovered : int;  (** records in the log after recovery *)
  lost : int;
      (** in-memory records dropped: the torn program's new records
          (never acknowledged), plus whatever a damaged page cut off *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : ?on_record:(string -> unit) -> t -> recovery
(** Post-crash scan (metered): keeps the longest prefix of full pages
    that are checksum-valid and continue the base sequence, then the
    newest tail program that continues that prefix — exactly the
    records of completed programs, no phantom records. A damaged full page
    truncates the log there, tail included. [on_record] sees every
    durable record, oldest first, as the walk parses it. Only a
    [Checksummed] log can recover; raises [Invalid_argument] on a
    [Plain] one. Idempotent; clears {!needs_recovery}. *)
