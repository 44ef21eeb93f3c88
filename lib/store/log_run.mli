module Flash = Ghost_flash.Flash

(** Immutable sorted runs for the leveled delta log.

    A run holds records in ascending key order, where a record is an
    {e id part} followed by a {e value part}. The id part is a vector
    of id fields, one unsigned 32-bit integer each, and the key is the
    first (the delta log stores the record's SKT-level ids there, root
    id first, and the root's hidden column values in the value part).
    The run stores them as two streams of CRC-checksummed Flash pages
    in the same record order: {e id pages} hold the id parts, {e value
    pages} the value parts, so a scan that needs no value reads the id
    pages alone. Both streams carry the run's level, their own page
    ordinals and a seal flag on their final page. Runs are built
    append-only — NAND forbids rewrites — and are {e installed
    atomically}: a run is installed only once both final pages are
    sealed, so an interrupted build is never observable and recovery
    discards it wholesale while the (unmodified) inputs roll the log
    back to its pre-compaction state. See DESIGN.md section 16.

    {b Packed id pages.} An id page stores each record's id fields
    bit-packed, in one fixed width per field that the builder is
    given when it starts ({!start}): the key as its offset from the
    run's [min_key], then every other field as is. Records therefore
    stay fixed-width — [sum id_widths] bits on an id page,
    [value_bytes] bytes on a value page — so a record's page and its
    value follow from its ordinal alone. Readers decode a record
    straight into its id vector. Run byte counts ({!size_bytes},
    {!programmed_bytes}) are payload bytes at the packed size.

    Every page header records the key fences of its records, so a
    probe-style scan ({!iter} with bounds) skips id pages whose
    [min, max] window cannot intersect the candidate range, and reads
    only the value pages of the records it emits — the
    read-amplification levers the cost model prices per run. *)

val header_bytes : int

type page_meta = {
  pp_page : int;  (** Flash page number *)
  pp_count : int;  (** records in this page *)
  pp_min : int;  (** smallest key in the page *)
  pp_max : int;  (** largest key in the page *)
}

type t = {
  level : int;  (** 1 for an L0 spill, [k + 1] for a level-[k] merge *)
  id_widths : int array;
      (** bits of each packed id field on an id page, the key's offset
          from [min_key] first; 1 to 32 each *)
  value_bytes : int;  (** width of its value part; 0 when it has none *)
  id_pages : page_meta array;  (** in program (and key) order *)
  value_pages : page_meta array;
      (** in program (and key) order; empty when [value_bytes = 0] *)
  count : int;  (** records in the run; always positive *)
  min_key : int;
  max_key : int;
}

val page_count : t -> int
(** Flash pages of both streams. *)

val pages : t -> int list
(** Every Flash page of the run: the id pages, then the value pages. *)

val size_bytes : t -> int
(** Payload bytes of the run, both streams, id pages at their packed
    size (headers excluded). *)

val records_per_page : Flash.t -> record_bits:int -> int
(** Records of [record_bits] bits one run page holds. *)

(** {2 Building}

    A builder accumulates records (which must arrive in ascending key
    order) and programs a page of a stream whenever one fills; {!seal}
    programs each stream's final page with the seal flag set, the id
    stream's first — together the run's atomic commit. A power cut
    tearing any program leaves the build uninstalled, and recovery
    discards the whole partial output. *)

type builder

val start :
  Flash.t -> id_widths:int array -> value_bytes:int -> level:int -> builder
(** A builder of runs whose records have [Array.length id_widths] id
    fields, packed in [id_widths] bits each (the key's offset from the
    run's first key, then the other fields), and [value_bytes] bytes of
    value. Raises [Invalid_argument] on no field, a width outside 1 to
    32, or a record part (plus header) that exceeds a page. With
    [value_bytes = 0] the run has no value stream. *)

val add : ?on_program:(int -> unit) -> builder -> string -> unit
(** Buffers one record — its id fields as big-endian u32s, then its
    value part — first programming each stream's page that is already
    full, so one record may program a page of each stream.
    [on_program] observes every programmed page number (the delta log
    invalidates its page-cache frame, since {!Flash.append} recycles
    erased pages). Raises [Invalid_argument] on a record of the wrong
    width, a key below the previous one, or an id field (the key: its
    offset from the first key) that does not fit its width; nothing is
    buffered then, and no field is ever truncated. *)

val seal : ?on_program:(int -> unit) -> builder -> t
(** Programs each stream's buffered tail as its sealed final page —
    two programs, one when the run has no value stream — and returns
    the installed run. Raises [Invalid_argument] on an empty builder
    (callers install nothing when every input record was dropped). *)

val built_count : builder -> int
(** Records added so far. *)

val programmed_pages : builder -> int
(** Pages programmed so far, both streams. *)

val programmed_bytes : builder -> int
(** Payload bytes already programmed to Flash, both streams, id pages
    at their packed size (buffered parts excluded) — the dead bytes an
    abandoned build leaves behind. *)

(** {2 Reading}

    On an authenticated Flash ([Device.config.verify_pages]) every
    read below reads whole pages and checks each against its seal and
    against the run's own record of it (level, ordinal, count, key
    fences, final flag); a mismatch raises {!Flash.Integrity_error}
    naming the page, so damaged bytes are never served as records.
    Otherwise a read fetches only the payload. *)

val iter :
  Flash.t -> ?lo:int -> ?hi:int -> ?values:bool -> t ->
  (int array -> bytes -> int -> unit) -> unit
(** Metered sequential read of the run's records in key order:
    [f ids values values_off] gets a record's id fields, unpacked into
    the fresh vector [ids] (key first), and its value part at
    [values_off] of [values].
    With bounds, id pages whose fences lie entirely outside [[lo, hi]]
    are skipped without a read, and only the records whose key lies in
    [[lo, hi]] are emitted. With [values] (the default) the value
    pages holding the emitted records are read too, each once; with
    [~values:false] none is, and [f] gets an empty value buffer. *)

val validate : Flash.t -> t -> bool
(** Metered post-crash check: every page of both streams parses (tag,
    CRC, level, ordinal, count, fences), each stream's final page —
    and only it — carries the seal flag, and each stream's record
    counts sum to [count]. An installed run always validates after a
    pure power cut; an interrupted build never does. *)

val page_intact : Flash.t -> t -> page:int -> bool option
(** [None] when [page] is not a page of the run; otherwise whether a
    fresh full-page read of it (metered, straight from the cells)
    passes the checks {!validate} makes of it — how a caught
    {!Flash.Integrity_error} on a run page is classified. *)

(** {2 Merging}

    A resumable k-way merge cursor over sorted runs, newest-wins: of
    several heads sharing a key, the record from the latest run (by
    position in the input list, oldest first) is emitted and the older
    duplicates are discarded. The cursor holds only the decoded parts
    of one read-ahead page per stream per input — bounded RAM — and is
    plain data, so a mid-merge compaction survives
    {!Ghostdb.Ghost_db.save_image}. *)

type merge

val merge_start : t list -> merge
val merge_next : Flash.t -> merge -> string option
(** The next record, in the form {!add} takes; [None] when every
    input is exhausted. Page reads are metered as they happen, so a
    time-sliced compaction charges the device clock only for the work
    of its own slice. *)

val key : string -> int
(** The sort key of a record: the u32 at offset 0. *)
