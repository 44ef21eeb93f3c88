module Value = Ghost_kernel.Value
module Flash = Ghost_flash.Flash

(** Append-only delta log: inserts after the initial load.

    NAND Flash forbids in-place writes, so freshly inserted root-table
    tuples cannot be folded into the SKT / climbing-index structures
    (those are rebuilt offline, in the secure setting, like the initial
    load). Instead each insert appends one fixed-width record — the
    tuple's full SKT-style id vector plus its own hidden column values
    — to a log on the device Flash. Query execution scans the (small)
    log next to the indexed main structures; see {!Exec}.

    Only the schema root accepts inserts in this reproduction: new
    facts referencing existing dimension rows, the natural OLTP case.
    Dimension inserts and deletes are future work (documented in
    DESIGN.md).

    {2 Leveled runs}

    A flat log makes every query pay a full scan that grows without
    bound between reorganizations. When a {!runs_policy} is supplied,
    the log becomes a miniature LSM tree: the unsorted recent pages
    (L0, the memtable role) spill into immutable sorted
    {!Ghost_store.Log_run} runs, runs of a level merge into the next,
    and reads stream runs + L0 with page-range skipping. Because the
    schema root assigns {e dense increasing} ids and each root id
    appears in at most one delta record, L0 is already key-sorted and
    the newest-wins merge is trivially correct. Compaction never runs
    inline in {!append} (a power cut mid-spill must not disturb the
    acknowledged-prefix protocol {!Insert} relies on); it runs in
    background slices via {!compact_step}, typically driven by
    {!Compaction} under the scheduler. Without a policy nothing
    changes: the flat format and all observable behavior stay
    bit-identical to the seed. See DESIGN.md section 16. *)

type durability = Ghost_store.Append_log.durability =
  | Plain  (** raw records, no torn-write detection (the seed format) *)
  | Checksummed
      (** sealed pages, recoverable after a power cut (see
          {!Ghost_store.Append_log.Checksummed}) *)

type runs_policy = {
  l0_spill_pages : int;
      (** spill the L0 full pages into a level-1 run once this many
          have accumulated; [>= 1] *)
  run_fanout : int;
      (** merge all runs of a level into one run of the next once the
          level holds this many; [>= 2] *)
}

type t

val create :
  ?durability:durability ->
  ?cache:Ghost_device.Page_cache.t ->
  ?runs:runs_policy ->
  Flash.t ->
  table:string ->
  levels:string list ->
  hidden_cols:(string * Value.ty) list ->
  t
(** [levels] — the subtree preorder (the SKT level layout of the
    table); [hidden_cols] — the table's own hidden columns, in
    declaration order. The L0 pages are a {!Ghost_store.Append_log}
    tagged ["GDLT"]; [durability] defaults to [Plain] (bit-identical
    to the original format). [cache] — the device's shared page cache;
    every append and compaction program invalidates the page it
    programs there, since {!Flash.append} recycles erased pages the
    cache may still hold. [runs] — omit for the seed's flat log; supply
    a policy to enable leveled compaction. *)

val table : t -> string
val count : t -> int
(** Logical records ever appended (and recovered). Monotonic even
    across compaction — {!Catalog} derives the next dense root id from
    it — and unchanged by tombstone folding. *)

val record_bytes : t -> int
val size_bytes : t -> int
(** Live bytes of the log (runs + full pages + current tail). *)

val dead_bytes : t -> int
(** Bytes of superseded programs — stale tails, compacted-away inputs
    and abandoned partial builds — the write amplification of the
    no-rewrite discipline, reclaimed only by offline reorganization. *)

val append : t -> ids:int array -> hidden:Value.t array -> unit
(** Appends one record; programs a Flash page per page-full of records
    (partially filled tail pages are reprogrammed into fresh pages, as
    the no-rewrite discipline demands — the write amplification is
    metered). Raises [Invalid_argument] on misaligned input, or when
    the log {!needs_recovery}. An append is {e acknowledged} only when
    this call returns: if the page program is torn by a simulated power
    cut, [Flash.Power_cut] propagates, the record is not durable, and
    the log refuses further appends until {!recover} runs. *)

(** {2 Leveled compaction} *)

val runs_enabled : t -> bool
(** A {!runs_policy} was supplied at creation. *)

val has_runs : t -> bool
(** At least one sorted run is installed. *)

val run_count : t -> int
val run_pages : t -> int
(** Installed runs / total Flash pages they occupy. *)

val l0_pages : t -> int
(** Unspilled L0 pages (full pages + live tail program). *)

val physical_records : t -> int
(** Records a sequential scan touches: {!count} minus the tombstoned
    records compaction folded away. Equal to {!count} on a flat log. *)

val dropped_records : t -> int
(** Tombstoned records folded away by compaction so far. *)

val compaction_pending : t -> bool
(** A compaction unit is in flight, the L0 spill threshold is reached,
    or some level holds [run_fanout] runs. Always false without a
    policy or while the log {!needs_recovery}. *)

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
    exhausted, whichever first. [drop] is consulted once per record
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

    A power cut can tear the in-flight tail program. Because every
    append programs a {e fresh} page and the superseded tail programs
    stay on flash until reorganization, the previous tail page still
    holds every acknowledged record — recovery only has to find it.

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
  lost : int;  (** in-memory records dropped (never acknowledged) *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : t -> recovery
(** Post-crash scan (metered): abandons any interrupted compaction
    build, re-validates installed runs, then recovers the L0 pages with
    {!Ghost_store.Append_log.recover} — the longest checksum-valid
    prefix continuing the spilled sequence, exactly the acknowledged
    appends, no phantom records. Only a [Checksummed] log can recover;
    raises [Invalid_argument] on a [Plain] one. Idempotent; clears
    {!needs_recovery}. *)

type row = {
  ids : int array;  (** aligned with [levels] *)
  hidden : Value.t array;  (** aligned with [hidden_cols] *)
}

val scan : t -> (row -> unit) -> unit
(** Sequential metered read of the whole log: installed runs oldest
    first, then the L0 pages — ascending root-id order throughout,
    matching the flat log's append order. *)

val scan_range : ?lo:int -> ?hi:int -> t -> (row -> unit) -> unit
(** {!scan} that skips run pages whose key fences fall outside
    [[lo, hi]] — the merge-on-read fast path. Emits a {e superset} of
    the rows in range (page granularity; L0 is always read whole), so
    callers re-check membership exactly as {!Exec}'s shipped-id
    filters do. On a flat log the bounds are ignored and the scan is
    bit-identical to {!scan}. *)

val hidden_value : t -> row -> string -> Value.t
(** [hidden_value t row col] — the record's value of one of the
    table's own hidden columns. Raises [Not_found]. *)

val hidden_assoc : t -> row -> (string * Value.t) list
(** All of the record's own hidden column values, by name. *)
