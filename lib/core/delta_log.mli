module Value = Ghost_kernel.Value
module Flash = Ghost_flash.Flash

(** Append-only delta log: inserts after the initial load.

    NAND Flash forbids in-place writes, so freshly inserted root-table
    tuples cannot be folded into the SKT / climbing-index structures
    (those are rebuilt offline, in the secure setting, like the initial
    load). Instead each inserted tuple becomes one fixed-width record —
    its full SKT-style id vector plus its own hidden column values —
    in a log on the device Flash; an insert batch is one append. Query execution scans the (small)
    log next to the indexed main structures; see {!Exec}.

    Only the schema root accepts inserts in this reproduction: new
    facts referencing existing dimension rows, the natural OLTP case.
    Dimension inserts and deletes are future work (documented in
    DESIGN.md).

    {2 Leveled runs}

    A log read whole makes every query pay a scan that grows without
    bound between reorganizations. So the log is a miniature LSM tree:
    the unsorted recent pages (L0, the memtable role) spill into
    immutable sorted {!Ghost_store.Log_run} runs, runs of a level merge
    into the next, and reads stream runs + L0 with page-range skipping. A run stores
    each record as two page streams: id pages hold its id vector
    (root id first, carrying the key fences) and value pages its
    hidden values, in the same record order, so a scan whose plan
    needs no root hidden value reads the id pages alone. Id pages are
    bit-packed in widths fixed from public numbers when a compaction
    unit starts: the root id as its offset from the run's first key,
    in the bits of the unit's input key range, and every other level
    in the bits of the largest id its table holds ([max_ids]). So run
    page counts, and every byte count below, depend on the insert,
    delete and compaction history the spy sees, never on hidden
    foreign keys or values. Because the schema root assigns {e dense
    increasing} ids and each root id appears in at most one delta
    record, L0 is already key-sorted and the newest-wins merge is
    trivially correct. Compaction never runs inline in {!append} (a
    power cut mid-spill must not disturb the acknowledged-record
    protocol {!Insert} relies on); it runs in background slices via
    {!compact_step}, typically driven by {!Compaction} under the
    scheduler. A log that nothing compacts is all L0, so it programs
    and reads exactly the pages of the paper's append-only log. See
    DESIGN.md section 16. *)

type t

val create :
  ?cache:Ghost_device.Page_cache.t ->
  runs:Ghost_device.Device.log_runs ->
  Flash.t ->
  levels:string list ->
  max_ids:int list ->
  hidden_cols:(string * Value.ty) list ->
  t
(** [levels] — the subtree preorder (the SKT level layout of the
    table); [max_ids] — the largest id each level below the root
    holds, aligned with [List.tl levels] (its table's cardinality: a
    public number), which sizes that level's field on a run's id
    pages; [hidden_cols] — the table's own hidden columns, in
    declaration order; [runs] — when compaction spills L0 and merges a
    level. Raises [Invalid_argument] when [max_ids] is misaligned or
    outside [0 .. 2^32 - 1], on a spill threshold below 1 or a fanout
    below 2, or when a record cannot fit a run page. The L0 pages are a
    {!Ghost_store.Append_log} tagged ["GDLT"]: sealed pages,
    recoverable after a power cut. [cache] — the device's shared page
    cache; every append and compaction program invalidates the page it
    programs there, since {!Flash.append} recycles erased pages the
    cache may still hold. *)

val count : t -> int
(** Logical records ever appended (and recovered). Monotonic even
    across compaction — {!Catalog} derives the next dense root id from
    it — and unchanged by tombstone folding. *)

val acknowledged : t -> int
(** Logical records whose program completed: {!count} minus the torn
    program's new records after a power cut, until {!recover} (see
    {!Ghost_store.Append_log.acknowledged}). *)

val record_bytes : t -> int
(** Bytes of one L0 record: a u32 per level, then the hidden values. *)

val size_bytes : t -> int
(** Live bytes of the log: runs at their packed size
    ({!Ghost_store.Log_run.size_bytes}), full pages and the current
    tail at {!record_bytes} a record. *)

val dead_bytes : t -> int
(** Bytes of superseded programs — stale tails, compacted-away inputs
    (spilled L0 pages at {!record_bytes} a record, merged runs at their
    packed size) and abandoned partial builds (packed) — the write
    amplification of the no-rewrite discipline, reclaimed only by
    offline reorganization. *)

type row = {
  ids : int array;  (** aligned with [levels] *)
  hidden : Value.t array;  (** aligned with [hidden_cols] *)
}

val append : t -> row list -> unit
(** Appends a batch of records, oldest first, as one
    {!Ghost_store.Append_log.append}: one program per L0 page the batch
    fills and one for its last partial page (the partial tail is
    reprogrammed into a fresh page by the next batch, as the no-rewrite
    discipline demands — the write amplification is metered). Raises
    [Invalid_argument] on a misaligned record or an id above its
    level's [max_ids] (before anything is programmed), or when the log
    {!needs_recovery}. Each program
    {e acknowledges} the records it carries: if a simulated power cut
    tears one, [Flash.Power_cut] propagates, the records of the
    completed programs are durable ({!acknowledged}), the torn
    program's are not, and the log refuses further appends until
    {!recover} runs. *)

(** {2 Leveled compaction} *)

val has_runs : t -> bool
(** At least one sorted run is installed. *)

val run_count : t -> int
val run_pages : t -> int
(** Installed runs / total Flash pages they occupy, both streams. *)

val run_id_pages : t -> int
(** Of {!run_pages}, the id pages: all a scan that reads no hidden
    value touches of the runs. *)

val run_records : t -> int
(** Records held by the installed runs; {!physical_records} minus the
    L0 records. *)

val pages : t -> int list
(** Every live Flash page of the log: the L0 pages (full pages, then
    the live tail program), then each run's id and value pages. *)

val l0_pages : t -> int
(** Unspilled L0 pages (full pages + live tail program). *)

val physical_records : t -> int
(** Records a sequential scan touches: {!count} minus the tombstoned
    records compaction folded away. *)

val dropped_records : t -> int
(** Tombstoned records folded away by compaction so far. *)

val compaction_pending : t -> bool
(** A compaction unit is in flight, the L0 spill threshold is reached,
    or some level holds [run_fanout] runs. Always false while the log
    {!needs_recovery}. *)

type step =
  | Idle  (** nothing pending *)
  | Worked  (** programmed up to [max_pages]; call again *)
  | Installed of installed
      (** the in-flight unit's output run was sealed and installed (or
          its inputs were dropped whole, when every record was
          tombstoned) *)

and installed = {
  inst_spill : bool;  (** an L0 spill, as opposed to a run merge *)
  inst_level : int;  (** level of the installed run *)
  inst_pages : int;  (** run pages programmed for it *)
  inst_records : int;  (** records it holds *)
  inst_dropped : int;  (** tombstoned records folded away *)
}

val compact_step : ?drop:(int -> bool) -> t -> max_pages:int -> step
(** Runs one bounded slice of background compaction: starts (or
    resumes) the pending unit and feeds its builder until [max_pages]
    run pages have been programmed this slice or the input is
    exhausted, whichever first — one page more when a record filled a
    page of each stream at once, or when the seal programs both
    streams' final pages. [drop] is consulted once per record
    with its root id; dropped records (tombstoned ones, in practice)
    are folded away and the run keeps the log's scan cost from
    re-paying them forever. The unit's state is plain data on [t], so
    it survives image save/load and arbitrary interleaving with
    appends and queries — installed runs are immutable and L0 only
    grows between slices. Raises [Invalid_argument] while the log
    {!needs_recovery} or when [max_pages < 1]; propagates
    [Flash.Power_cut] (the crash is recovered like any other, see
    below). *)

(** {2 Crash safety}

    A power cut can tear the in-flight program. Because every program
    goes to a {e fresh} page and the superseded tail programs stay on
    flash until reorganization, the completed programs still hold every
    acknowledged record — recovery only has to find them.

    Compaction adds two cases, both resolved by the run seal flag
    (DESIGN.md section 16): an {e installed} run was committed by its
    sealed final-page program and rolls {e forward} (it re-validates);
    an {e interrupted build} is unsealed by construction, never
    observable by readers, and rolls {e back} — the partial output is
    abandoned as dead bytes and the untouched inputs remain live. *)

val needs_recovery : t -> bool
(** True after a power cut tore a program of this log and until
    {!recover} completes. *)

type recovery = Ghost_store.Append_log.recovery = {
  recovered : int;  (** live records after recovery (folded ones excluded) *)
  lost : int;  (** in-memory records dropped (the torn program's) *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : t -> recovery
(** Post-crash scan (metered): abandons any interrupted compaction
    build, re-validates installed runs, then recovers the L0 pages with
    {!Ghost_store.Append_log.recover} — the longest checksum-valid
    prefix continuing the spilled sequence, exactly the acknowledged
    records, no phantom records. Idempotent; clears {!needs_recovery}. *)

val scan : t -> (row -> unit) -> unit
(** Sequential metered read of the whole log: installed runs oldest
    first, then the L0 pages — ascending root-id order throughout,
    which is the append order. *)

val scan_range :
  ?lo:int -> ?hi:int -> ?values:bool -> ?on_unpack:(int -> unit) -> t ->
  (row -> unit) -> unit
(** {!scan} that skips run pages whose key fences fall outside
    [[lo, hi]] — the merge-on-read fast path. The runs emit exactly
    their rows in range; L0 is always read and emitted whole, so the
    result is a {e superset} of the rows in range and callers re-check
    membership exactly as {!Exec}'s shipped-id filters do. With
    [~values:false] the scan reads no run value page and each row's
    [hidden] is empty (L0 pages hold whole records and cost the same
    either way); the ids, and their order, are those of the scan with
    values. [on_unpack n] runs before each row read from a run, with
    the [n] id fields unpacked for it ({!Exec} charges them as CPU
    work); L0 rows unpack nothing. On a log with no run the bounds
    select nothing and the scan is bit-identical to {!scan}. *)

val page_intact : t -> page:int -> bool option
(** [None] when [page] is not a live page of the log; otherwise
    whether a fresh read of it passes its own seal checks — an L0 page
    by {!Ghost_store.Append_log.page_intact}, a page of either stream
    of a run by {!Ghost_store.Log_run.page_intact}. *)

val hidden_value : t -> row -> string -> Value.t
(** [hidden_value t row col] — the record's value of one of the
    table's own hidden columns. Raises [Not_found] for an unknown
    column, [Invalid_argument] for a row of an id-only scan. *)

val hidden_assoc : t -> row -> (string * Value.t) list
(** All of the record's own hidden column values, by name. Raises
    [Invalid_argument] for a row of an id-only scan. *)
