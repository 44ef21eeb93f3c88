module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Bind = Ghost_sql.Bind
module Public_store = Ghost_public.Public_store
module Spy = Ghost_public.Spy

(** GhostDB: the public API.

    {[
      let db =
        Ghost_db.create ~ddl:"CREATE TABLE Visit (VisID INTEGER PRIMARY KEY, \
                              Date DATE, Purpose CHAR(20) HIDDEN, ...)" rows
      in
      let result = Ghost_db.query db "SELECT ... FROM ... WHERE ..." in
      List.iter print_row result.Exec.rows
    ]}

    Columns marked [HIDDEN] in the DDL live only on the (simulated)
    smart USB device; queries need no changes. [query] optimizes and
    executes; [plans] exposes the strategy panel for exploration, and
    [run_plan] executes a hand-built plan — the demo's phases 2
    and 3. *)

type t

val create :
  ?device_config:Device.config ->
  ?index_hidden_fks:bool ->
  ddl:string ->
  (string * Relation.tuple list) list ->
  t
(** Parses the DDL (with [HIDDEN] markers), splits the data between the
    public store and the device, and builds all on-device structures. *)

val of_schema :
  ?device_config:Device.config ->
  ?index_hidden_fks:bool ->
  Schema.t ->
  (string * Relation.tuple list) list ->
  t

val schema : t -> Schema.t
val catalog : t -> Catalog.t
val public : t -> Public_store.t
val device : t -> Device.t
val trace : t -> Trace.t

val set_metrics : t -> Ghost_metrics.Metrics.t option -> unit
(** Attaches (or detaches) an observability registry on the instance's
    device (see {!Device.set_metrics}): operator spans, scheduler
    slices, cache and trace counters, and cost-model calibration
    samples are recorded into it. Detached by default — recording never
    charges the simulated clock, and all outputs stay bit-identical to
    an instance without one. A rebuilt instance returned by
    {!reorganize} / {!recover} adopts the registry automatically. *)

val metrics : t -> Ghost_metrics.Metrics.t option

val flush_metrics : t -> unit
(** Publishes the device-global totals accumulated since the last flush
    into the registry ({!Device.flush_metrics}); call before exporting
    [metrics.json]. No-op without a registry. *)

val bind : t -> string -> Bind.query
(** Parse + resolve a SELECT against the schema. *)

val insert : t -> Relation.tuple list -> unit
(** Insert full tuples into the schema root (the fact table): visible
    columns go to the public store, hidden columns to the device's
    append-only delta log; queries see the new rows immediately. Keys
    must densely continue the existing ids and foreign keys must
    reference loaded dimension rows — see {!Insert}. *)

val delta_count : t -> int
(** Rows inserted since the load (pending offline reorganization). *)

val delete : t -> int list -> unit
(** Tombstone root tuples by id: queries stop seeing them immediately;
    Flash space is reclaimed by {!reorganize}. *)

val tombstone_count : t -> int

val compact : t -> unit
(** Eagerly drain pending delta-log compaction (see {!Compaction}): L0
    spills and run merges run to quiescence on the device clock, at
    the thresholds of the device config's [log_runs]. Nothing else
    compacts a log unless a {!Compaction} driver runs: a log never
    compacted stays all L0. In production shape compaction runs
    incrementally in scheduler idle slices
    ({!Ghost_sched.Scheduler.set_compactor}); this is the synchronous
    entry point for tests and single-session callers. Raises [Failure]
    while a log {!needs_recovery} or during an interrupted
    reorganization. *)

val compaction_pending : t -> bool
(** Work left for {!compact}: the root delta log has an in-flight
    compaction unit, a full L0, or an over-fanout level. *)

val reorganize : t -> t
(** Offline reorganization (the secure-setting reload): reads the
    current logical state off the device and the public store, compacts
    root ids (tombstoned gaps close, so root keys change), rebuilds
    every index structure, and returns a fresh instance. Refuses to run
    (raises [Failure]) while a log {!needs_recovery}.

    The rebuild runs as a {e journaled shadow build} ({!Reorg}): each
    phase writes a checksummed checkpoint record to a reorg journal on
    the old device's Flash and a single commit record flips the live
    image. A power cut mid-rebuild raises
    {!Ghost_flash.Flash.Power_cut} and leaves the instance
    {!needs_recovery}: {!recover} then either rolls the rebuild
    forward from the last durable checkpoint or rolls back to the
    intact pre-reorg image.

    The old device's clock pays the snapshot's reads and the journal's
    programs, and nothing else: the shadow build's programs reach no
    clock, and the fresh instance starts from a clean one. *)

(** {2 Crash recovery}

    The delta and tombstone logs seal every page, so they survive a
    simulated power cut ([Flash.Power_cut] escaping from {!insert} or
    {!delete}). A batch programs once per log page it touches and each
    completed program acknowledges its rows: the public store already
    holds exactly those rows when the cut escapes, and [recover]
    truncates the logs to them. *)

type reorg_outcome =
  | Reorg_completed of {
      db : t;  (** the rebuilt instance — the reorganization's result *)
      phases_reused : int;
          (** phases skipped on resume, their checkpoints durable *)
      phases_redone : int;
          (** phases re-executed, their checkpoint (or build) torn *)
    }  (** rolled forward: resumed from the last durable checkpoint *)
  | Reorg_rolled_back of {
      journal_records : int;  (** journal records that had survived *)
    }
      (** rolled back: no durable (digest-valid) snapshot checkpoint,
          so the intact pre-reorg image stays live *)

type recovery_report = {
  delta_recovered : int;  (** delta records durable after recovery *)
  delta_lost : int;  (** volatile delta records dropped *)
  tombstones_recovered : int;
  tombstones_lost : int;
  delta_torn_pages : int;
      (** delta-log pages found torn or checksum-invalid *)
  tombstone_torn_pages : int;
      (** tombstone-log pages found torn or checksum-invalid *)
  reorg : reorg_outcome option;
      (** outcome of an interrupted reorganization, if one was pending *)
}

val needs_recovery : t -> bool
(** True after a power cut tore a log program or interrupted a
    journaled reorganization. The volatile state may still include
    unacknowledged work, so query results are untrusted — and
    {!insert}, {!delete}, {!reorganize} and {!save_image} refuse —
    until {!recover} is called. *)

val recover : t -> recovery_report
(** Runs the post-crash recovery protocol on every log that needs it
    (metered on the device clock), resolves an interrupted
    reorganization (roll forward or roll back — see {!reorg_outcome})
    and accounts the outcomes in the device's counters with
    {!Device.note} ([Records_recovered], [Records_lost],
    [Reorg_rollforwards] or [Reorg_rollbacks]; {!Device.count} reads
    them back). A power cut during a roll-forward
    resume raises {!Ghost_flash.Flash.Power_cut} again; the
    reorganization stays pending and the next [recover] picks it up
    from the checkpoints that survived. *)

val query : t -> ?oblivious:bool -> string -> Exec.result
(** Optimize and execute with {!Exec.run}'s defaults: exact Post
    verification and 1 % Bloom filters.

    [oblivious] (default false) runs the query in its fixed shape
    ({!Planner.oblivious}, executed in [Full] mode): the spy-visible
    trace becomes a function of the schema and public bounds alone —
    two queries with the same visible part and the same public bounds
    produce byte-identical traces whatever their hidden constants.
    Rows returned are the real answer (dummy padding never leaves the
    trusted side); the overhead is reported in
    {!Exec.result.padding_bytes}. *)

val plans : t -> string -> (Plan.t * Cost.estimate) list
(** The candidate-plan panel, best first. *)

val run_plan :
  t -> ?exact_post:bool -> ?bloom_fpr:float -> Plan.t -> Exec.result
(** Execute a specific plan (ad-hoc plans of the demo's game phase)
    under its own {!Plan.t.oblivious} mode. [exact_post] and
    [bloom_fpr] are {!Exec.run}'s ablation knobs: a [bloom_fpr]
    outside the open interval (0, 1) raises [Invalid_argument] before
    the device is touched. *)

val spy_report : t -> Spy.report
(** What a spy has observed since the last {!clear_trace}. *)

val access_profile : t -> fixed_shape:bool -> Privacy.access
(** The access-pattern side-channel profile to hand {!audit}:
    [page_bound] is the catalog's structure page count (the most pages
    a query-time walk can touch); [fixed_shape] asserts the executions
    being audited used the oblivious path. *)

val audit : ?access:Privacy.access -> t -> Privacy.verdict
val clear_trace : t -> unit

val storage : t -> Catalog.storage_report
(** Flash footprint of the hidden data and its indexes (E9). *)

(** {2 Device images}

    A GhostDB instance — simulated Flash content, catalog metadata,
    public store and trace — can be saved to disk and reopened later,
    standing for unplugging and re-plugging the USB device. *)

exception Image_error of string

val save_image : t -> string -> unit
(** Writes the instance to a file, atomically: the image (with a
    length header and a CRC-32 trailer over the marshalled payload) is
    written to [<path>.tmp] and renamed into place, so a failed save
    leaves the previous image — or no file — never a partial one.
    Raises [Failure] while a reorganization awaits {!recover}. *)

val load_image : string -> t
(** Reopens a saved instance. Raises {!Image_error} on a file that is
    not a GhostDB image or was written by an incompatible version,
    with distinct messages for a {e truncated} image (bytes missing)
    and a {e corrupted} one (checksum mismatch). The image format
    trusts its producer (it is a marshalled heap): only load images
    you saved. *)

val row_to_string : Value.t array -> string
