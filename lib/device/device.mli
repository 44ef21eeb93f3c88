module Flash = Ghost_flash.Flash
module Wire = Ghost_wire.Wire

(** The smart USB device (Figure 2 of the paper): a secure chip
    (32-bit RISC CPU + tens-of-KB RAM) driving a large external NAND
    Flash, connected to the terminal over USB 2.0 full speed.

    The model combines the {!Flash} simulator, the {!Ram} arena, a
    metered USB port and a CPU-operation counter into one simulated
    clock. All device-side query processing charges its work here, so
    plan execution times are deterministic and reproducible.

    For robustness experiments the device can be configured with a
    Flash fault model ({!Flash.fault_config}) and a lossy USB link
    ({!usb_fault}); both are off by default and add zero overhead when
    disabled. *)

type usb_fault = {
  usb_seed : int;  (** seed of the corruption generator *)
  corrupt_prob : float;  (** per-attempt probability a transfer is corrupted *)
  max_retries : int;  (** retransmissions before the transfer fails *)
  backoff_us : float;
      (** base backoff; attempt [k] waits [2^k] times this, without
          jitter. The wait is metered on the device clock and every
          retransmitted attempt is spy-visible. *)
}

val default_usb_fault : usb_fault
(** Zero corruption probability, 4 retries, 250 us base backoff — the
    base for [{ default_usb_fault with ... }] sweeps. *)

exception Usb_error of string
(** A transfer kept getting corrupted until the retry budget ran out. *)

type config = {
  ram_budget : int;  (** bytes of secure-chip RAM (default 64 KiB) *)
  usb_mbit_per_s : float;  (** link throughput (default 12, USB full speed) *)
  usb_per_message_us : float;  (** per-transfer protocol latency *)
  cpu_mips : float;  (** simulated RISC core speed (default 50 MIPS) *)
  flash_geometry : Flash.geometry;
  flash_cost : Flash.cost;
  flash_fault : Flash.fault_config option;  (** NAND fault injection (default off) *)
  usb_fault : usb_fault option;  (** USB corruption injection (default off) *)
  durable_logs : bool;
      (** ignored: every delta and tombstone log page is sealed and
          survives a power cut whatever this says. The field remains
          only because the ghostbench workload definitions
          ([bench/e2e/workloads.ml]) set it; it goes with the next
          change to that benchmark. *)
  page_cache_frames : int;
      (** frames of the shared {!Page_cache} over the main Flash
          region, each one page and charged to the RAM budget for the
          device's lifetime (default 0: no cache, every code path and
          cost bit-identical to the cache-free simulator) *)
  wire_format : Wire.format;
      (** framing of the [Pc_to_device] data messages (default
          {!Wire.Verbose}: the seed's fixed-width per-message framing,
          bit-identical byte counts and clock). {!Wire.Compact} opts
          into interned opcodes, varint-delta id lists and coalesced
          CRC-framed transfers — same spy-visible information, fewer
          bytes on the bottleneck link (DESIGN.md section 13). *)
  verify_pages : bool;
      (** authenticate the main Flash region: structure-page writers
          seal every page with a CRC-32 trailer and every cache-miss
          read verifies it, raising {!Flash.Integrity_error} instead
          of letting corrupt bytes reach the executor (DESIGN.md
          section 14). Every log read then fetches whole pages and
          checks their seals. Default false: unauthenticated pages,
          unverified reads. *)
  log_runs : log_runs option;
      (** the thresholds of the leveled delta log: its append-only
          pages are an L0 memtable that background compaction spills
          into CRC-checksummed sorted runs and merges level by level,
          bounding merge-on-read depth under sustained writes
          (DESIGN.md section 16). [None] (the default) means
          {!default_log_runs}; the option remains only because the
          ghostbench workload definitions ([bench/e2e/workloads.ml])
          set [Some]. *)
}

and log_runs = {
  l0_spill_pages : int;
      (** full L0 pages that make the log spill-eligible: compaction
          folds the whole L0 prefix into one sorted level-1 run *)
  run_fanout : int;
      (** runs at a level that trigger merging them into one run at
          the next level — the leveling fanout *)
}

val default_log_runs : log_runs
(** 4 L0 pages per spill, fanout 4 — the base for
    [{ default_log_runs with ... }] sweeps. *)

val default_config : config
(** The paper's demo device: 64 KiB RAM, 12 Mbit/s USB, 50 MIPS,
    default NAND geometry and costs, no fault injection. *)

type t

val create : ?config:config -> trace:Trace.t -> unit -> t
val config : t -> config
val flash : t -> Flash.t
(** The persistent Flash region holding the database and its indexes. *)

val scratch : t -> Flash.t
(** A Flash region reserved for query-time spills (external sort runs,
    intermediate merges). Managed separately so its blocks can be
    erased wholesale after a query without touching live data — the
    role of an FTL partition on a real device. Same cost model as
    {!flash}; its traffic counts toward the device clock. *)

val new_scratch_region : t -> Flash.t
(** A fresh spill region for one scheduler session, with the same
    geometry, cost and fault model as {!scratch}. Partitioning spills
    per session lets a session's scratch be erased wholesale on
    completion or cancellation without tearing another session's
    in-flight sort runs. The region stays registered with the device
    for its lifetime: its traffic counts toward {!elapsed_us},
    {!snapshot} and {!fault_counters} exactly like {!scratch}'s, so a
    single session on a private region is clock-identical to one on
    the shared region. The scheduler pools and reuses regions. *)

val set_on_tick : t -> (unit -> unit) option -> unit
(** Installs (or removes) the scheduler's preemption hook, invoked
    after every CPU or USB clock charge. The executor's inner loops
    charge the CPU per tuple, so the hook observes the device clock at
    tuple granularity; it is where a time-sliced execution performs
    its yield. [None] (the default) reduces to a single branch — the
    serial path is unaffected. *)

val set_session : t -> int option -> unit
(** Brackets trace attribution: forwards to {!Trace.set_session} on
    the device's trace, so every message recorded while a scheduler
    slice runs carries its session id — and advances the per-session
    virtual clock behind {!session_us}. *)

val session_us : t -> float
(** The current session's {e virtual} clock, in simulated microseconds:
    it advances with {!elapsed_us} while that session's bracket is open
    and stands still while other sessions run. Outside any bracket
    (serial execution) it equals {!elapsed_us}. Operator profile spans
    are stamped with this, so a session's measured operator times are
    independent of how the scheduler interleaved it. *)

val ram : t -> Ram.t

val page_cache : t -> Page_cache.t option
(** The shared buffer manager over {!flash}, present when
    [page_cache_frames > 0]. Query-time readers route page fills
    through it; the scratch region is never cached. *)

val cache_stats : t -> Page_cache.stats
(** {!Page_cache.stats} of the cache, or all zeros without one. *)

val trace : t -> Trace.t

val cpu : t -> int -> unit
(** [cpu t n] charges [n] simulated CPU operations. *)

val receive : ?obl:Trace.obl -> t -> Trace.payload -> bytes:int -> unit
(** Meters an inbound USB transfer (visible data entering the device)
    with a caller-supplied byte count and records it on the
    [Pc_to_device] link. Under an active {!usb_fault} model a
    corrupted transfer is retransmitted with exponential backoff —
    every attempt is charged to the clock, counted in the byte totals
    and recorded in the trace (a spy sees retransmitted bytes like any
    others) — until it succeeds or {!Usb_error} is raised.

    This is the raw, format-oblivious entry point (tests, ad-hoc
    traffic). Data-bearing executor traffic goes through the typed
    receives below, which derive the byte count from the actual
    encoded frame under the configured {!Wire.format}. *)

(** {2 Typed inbound transfers}

    Each call really encodes its message through the device's reused
    wire buffer and meters the encoded size: under [Verbose] exactly
    the seed's fixed-width sizes; under [Compact] the interned
    varint-delta framing, envelope included. Same retry discipline as
    {!receive}, operating on whole frames. *)

val receive_query : t -> string -> unit
(** The SQL text entering the device. *)

val receive_id_list : t -> table:string -> int array -> unit
(** A shipped visible-selection id list (strictly increasing;
    [Invalid_argument] otherwise). *)

val receive_value_stream :
  t -> table:string -> column:string -> ty:Ghost_kernel.Value.ty ->
  (int * Ghost_kernel.Value.t) array -> unit
(** An id-sorted stream of one visible column's [(id, value)] pairs. *)

val with_usb_batch : t -> (unit -> 'a) -> 'a
(** [with_usb_batch t f] coalesces every typed receive inside [f] into
    one vectored USB frame, sent when [f] returns: the burst pays one
    [usb_per_message_us], draws one corruption lottery and retries as
    a unit, and the frame envelope's bytes are attributed to the first
    message's trace event (so per-event byte sums still equal the
    device byte counters). The preemption hook is suspended for the
    bracket — a vectored submission is one unit of work; the transfer
    itself ticks normally. Under [Verbose] (and when nested) this is
    exactly [f ()]: no framing, no behavior change. An empty bracket
    sends nothing. *)

val emit_result : ?obl:Trace.obl -> t -> count:int -> bytes:int -> unit
(** Sends result tuples to the secure display ([Device_to_display]
    link — not spy visible) in fixed-width rows. Same retry discipline
    as {!receive}. [obl] annotates the event with its leakage bound
    (see {!Trace.obl}): the oblivious executor pads [count] and [bytes]
    to a public bound and marks the dummy share. *)

val emit_rows :
  ?obl:Trace.obl -> t -> tys:Ghost_kernel.Value.ty array ->
  Ghost_kernel.Value.t array list -> unit
(** Sends result rows to the secure display in the compact row codec
    ({!Wire.encode_rows}), encoded into the device's reused wire
    buffer, and meters their exact encoded size. The display link
    keeps this one codec whatever the PC link's {!config.wire_format}.
    Otherwise as {!emit_result}; [obl] lets the baseline executor mark
    the range of byte lengths the rows could take, so the auditor can
    measure the residual leak. *)

val emit_ack : t -> unit
(** A content-free protocol acknowledgement on [Device_to_pc]. *)

(** {2 Fault and maintenance counters}

    One table holds every robustness and maintenance counter the device
    reports. Each counter has one registry name ({!counter_name}). *)

type counter =
  | Flash_bit_flips  (** raw bit errors observed by reads *)
  | Flash_ecc_corrected  (** of which the controller ECC corrected *)
  | Flash_ecc_uncorrected
      (** bit errors served corrupt (ECC off or beyond correction) *)
  | Flash_program_failures  (** program attempts that failed *)
  | Flash_pages_remapped  (** writes moved to spare pages *)
  | Flash_bad_blocks  (** blocks retired from allocation *)
  | Flash_power_cuts  (** torn programs *)
  | Usb_corruptions  (** transfer attempts the link corrupted *)
  | Usb_retries  (** retransmissions *)
  | Records_recovered  (** log records a recovery kept *)
  | Records_lost  (** log records a recovery truncated *)
  | Reorg_checkpoints  (** durable reorg checkpoint records written *)
  | Reorg_rollbacks  (** interrupted reorgs rolled back to the old image *)
  | Reorg_rollforwards  (** interrupted reorgs resumed from a checkpoint *)
  | Integrity_errors  (** CRC trailer mismatches caught by readers *)
  | Integrity_transients  (** of which a cache-bypass re-read survived *)
  | Pages_scrubbed  (** pages the background scrubber verified *)
  | Scrub_refreshes  (** decaying pages the scrubber rewrote in place *)
  | Repair_rebuilds  (** replica rebuilds from a healthy fleet peer *)
  | Log_spills  (** L0 prefixes folded into sorted level-1 runs *)
  | Log_merges  (** level merges folding runs one level down *)
  | Compaction_pages  (** run pages programmed by spills + merges *)
  | Records_installed  (** records installed into runs by spills + merges *)
  | Records_dropped  (** tombstoned records compaction folded away *)
(** The seven [Flash_*] counters are read off the Flash regions' own
    {!Flash.fault_stats}; every other counter moves only through
    {!note}. *)

val counter_name : counter -> string
(** The counter's registry name, e.g. ["usb.retries"]. The [Flash_*]
    names ([flash.bit_flips], ...) never reach the registry. *)

val counters : counter list
(** Every counter, each once. *)

val note : t -> ?by:int -> counter -> unit
(** [note t ~by c] adds [by] (default 1) to counter [c] and, when a
    registry is attached, to the registry counter of the same name.
    Every call reports, [~by:0] included. [Invalid_argument] on a
    [Flash_*] counter. *)

val emit_reorg_progress : t -> phase:int -> phases:int -> unit
(** A zero-byte reorganization checkpoint notice on [Device_to_pc]
    (spy-visible, auditor-allowed): the device signals it is alive
    mid-rebuild without revealing anything about the data. Same retry
    discipline as {!receive}. *)

(** {2 Observability}

    The metrics registry ({!Ghost_metrics.Metrics}) is detached by
    default: every reporting site is a single [None] branch, recording
    never charges the simulated clock, and all outputs stay
    bit-identical to a device without one. *)

val set_metrics : t -> Ghost_metrics.Metrics.t option -> unit
(** Attaches (or detaches) an observability registry, propagating it to
    the device's {!Trace} and {!Page_cache}. Attaching rebases the
    registry's time origin past everything it already holds (see
    {!Ghost_metrics.Metrics.rebase}), so one registry can profile a
    succession of devices — e.g. across a reorganization — on one
    timeline, and arms {!flush_metrics} with a baseline snapshot. *)

val metrics : t -> Ghost_metrics.Metrics.t option

val flush_metrics : t -> unit
(** Publishes the device-global totals accumulated since the last flush
    (or since {!set_metrics}) into the registry: [device.flash.*],
    [device.usb.*], [device.cpu.*] counters and [device.*.us] time
    gauges. No-op without a registry. *)

(** {2 Accounting} *)

val cpu_time_us : t -> float
val usb_time_us : t -> float
val elapsed_us : t -> float
(** Flash time + USB time + CPU time, in simulated microseconds. *)

type fault_counters
(** A reading of every {!counter}. All zero unless fault injection is
    configured or some maintenance work was noted. *)

val zero_faults : fault_counters
val add_faults : fault_counters -> fault_counters -> fault_counters
val diff_faults : after:fault_counters -> before:fault_counters -> fault_counters
val no_faults : fault_counters -> bool

val fault_counters : t -> fault_counters
(** The noted counters, plus the [Flash_*] counters summed over the
    main, scratch and per-session Flash regions. *)

val count : fault_counters -> counter -> int

type snapshot = {
  flash : Flash.stats;  (** main + scratch + per-session regions combined *)
  usb_bytes_in : int;
  usb_bytes_out : int;
  usb_us : float;
  cpu_ops : int;
  elapsed : float;
  faults : fault_counters;
  cache : Page_cache.stats;
}

val snapshot : t -> snapshot

type usage = {
  flash_page_reads : int;
  flash_page_programs : int;
  flash_us : float;
  used_usb_bytes_in : int;
  used_usb_us : float;
  used_cpu_ops : int;
  cpu_us : float;
  total_us : float;
  faults : fault_counters;  (** counters moved within the window *)
  cache : Page_cache.stats;  (** page-cache activity within the window *)
}

val usage_between : t -> before:snapshot -> after:snapshot -> usage
val zero_usage : usage
val add_usage : usage -> usage -> usage
