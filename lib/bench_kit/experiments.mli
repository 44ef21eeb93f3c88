module Medical = Ghost_workload.Medical

(** The experiment suite (see DESIGN.md, Section 5).

    Each function regenerates one table or figure of the paper's
    demonstration (or a sensitivity claim of Sections 3–4) as a
    {!Report.t}: E1 is Figure 6 (ad-hoc plan comparison), E2–E3 the
    phase-2 GUI content, E4 the phase-1 security trace, E5 the "last
    resort algorithms are unacceptable" claim, and E6–E10 the hardware
    sensitivities (Flash asymmetry, RAM, USB, storage overhead,
    scale).

    All numbers are {e simulated device time} — deterministic, so the
    output is reproducible bit-for-bit for a fixed scale and seed. *)

val fig6_plans : ?scale:Medical.scale -> unit -> Report.t
(** E1 / Figure 6: execution time of the user-buildable plans P1
    (all-Pre), P2 (all-Post), P3 (Cross) and P4 (optimizer pick) for
    the Section 4 demo query. *)

val pre_post_crossover : ?scale:Medical.scale -> unit -> Report.t
(** E2: Pre vs Post vs Cross as the visible Date predicate's
    selectivity sweeps; shows the crossover the paper motivates. *)

val operator_stats : ?scale:Medical.scale -> unit -> Report.t
(** E3: the per-operator popup (tuples, RAM, time) for the demo query. *)

val privacy_trace : ?scale:Medical.scale -> unit -> Report.t
(** E4: the spy-visible message trace for the demo query + auditor
    verdict. *)

val baseline_compare : ?scale:Medical.scale -> unit -> Report.t
(** E5: GhostDB vs grace hash join vs sort-merge/join-index. *)

val flash_asymmetry : ?scale:Medical.scale -> unit -> Report.t
(** E6: sensitivity to the Flash program/read cost ratio (1–10x). *)

val ram_sweep : ?scale:Medical.scale -> unit -> Report.t
(** E7: sensitivity to the RAM budget (8 KiB – 512 KiB); also reports
    Bloom false positives absorbed by verification. Default scale is
    40 k prescriptions so the Bloom filters are actually under
    pressure. *)

val usb_sweep : ?scale:Medical.scale -> unit -> Report.t
(** E8: USB full speed (12 Mbit/s) vs high speed (480 Mbit/s). *)

val storage_overhead : ?scales:Medical.scale list -> unit -> Report.t
(** E9: Flash bytes of hidden base data vs SKTs vs climbing indexes. *)

val scale_sweep : ?cardinalities:int list -> unit -> Report.t
(** E10: execution time vs root-table cardinality. *)

val insert_sweep : ?scale:Medical.scale -> unit -> Report.t
(** E11 (extension): delta-log insert cost, query overhead vs pending
    delta size, and the log's write amplification. *)

val lifecycle : ?scale:Medical.scale -> unit -> Report.t
(** E12 (extension): inserts, deletes and the offline reorganization
    that folds the logs back in. *)

val optimizer_calibration : ?scale:Medical.scale -> unit -> Report.t
(** E13 (extension): how well the cost model ranks each query's plan
    panel against simulated execution, and the regret of trusting the
    optimizer's pick. *)

val retail_workload : unit -> Report.t
(** E14 (extension): the corporate/retail workload — a different tree
    shape end to end, with the privacy audit. *)

val robustness : ?scale:Medical.scale -> unit -> Report.t
(** E15 (extension): overhead of the robustness machinery — NAND
    bit-rot corrected by ECC, program failures remapped around bad
    blocks, and a lossy USB link with retry-with-backoff — on an insert
    + query workload, per fault profile. Deterministic (seeded fault
    injection). *)

val page_cache_sweep :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E16 (extension): device time of a hidden-predicate COUNT workload
    as the shared page cache's frame pool sweeps 0 (off), 4, 16 and
    64 frames, with hit/miss/eviction counters and the hit ratio per
    row. The frames=0 row is bit-identical to the cache-free
    simulator.

    [metrics] (here and on E17/E18/E19 below) attaches an observability
    registry to every instance the experiment builds and flushes the
    device totals into it before each measurement ends, so the caller
    can export [metrics.json], a Chrome trace and the cost-model
    calibration report alongside the table. The numbers in the table
    are unchanged by it. *)

val reorg_cost :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E17 (extension): cost of the journaled (crash-safe) reorganization
    and of recovering from a power cut, as the pending delta/tombstone
    logs grow. Per log size: journal pages written, the uninterrupted
    rebuild's device time, and the recovery time after a cut that
    forces a roll-back (Begin torn) vs one that allows a roll-forward
    (snapshot checkpoint durable, completed phases reused). *)

val sched_throughput :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E18 (extension): the multi-session scheduler under a closed-loop
    Zipf-skewed query mix — throughput and p50/p95/max latency as the
    concurrency level (1–8 clients) and the policy (FIFO baseline,
    round-robin, shortest-remaining-cost-first) vary. The headline is
    the p95 column: FIFO convoys light queries behind rare heavy ones;
    both preemptive policies dissolve the convoy. *)

val fleet_scaling :
  ?metrics:Ghost_metrics.Metrics.t ->
  ?scale:Medical.scale ->
  ?shard_counts:int list ->
  unit ->
  Report.t
(** E19 (extension): the fault-tolerant device fleet under the
    closed-loop driver — 8 clients per shard over the E18 query mix as
    the shard count sweeps [shard_counts] (default 1–8; [all ~full]
    raises it to 4–32, i.e. up to 256 clients), plus fault rows that
    unplug a device mid-run: at R = 2 every affected sub-query fails
    over and zero queries are lost; at R = 1 affected queries degrade
    to partials tagged with the dead shard. Every cell runs the fleet
    privacy audit. Deterministic (seeded faults, one global simulated
    clock across devices). *)

val wire_formats :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E20 (extension): the compact wire protocol against the seed's
    verbose framing — USB bytes moved, the cost model's per-encoding
    byte prediction and device latency for the demo workload's Pre,
    Post and Cross plans at 12 and 480 Mbit/s. The compact rows carry
    byte-cut and speedup ratios against the verbose baseline measured
    in the same run. *)

val integrity_sweep :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E21 (extension): end-to-end integrity. Prices CRC trailer
    verification on the E16 hot-cache workload (verify off vs on),
    then injects seeded latent corruption — alternating ECC-correctable
    one-bit decays and uncorrectable two-bit flips — into one replica's
    structure pages of a two-shard fleet and sweeps flip rate ×
    scrubbing × R ∈ {{1, 2}}: silently-wrong answers (zero, by
    construction), detections, scrubber refreshes, anti-entropy repairs
    and repair time, and remaining failures after repair. *)

val oblivious_frontier :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E22 (extension): the privacy/performance frontier of oblivious
    execution. Runs the E18 query mix under baseline, pad-only and
    fully-oblivious modes and reports device time, USB bytes and
    padding overhead against two leakage measures: the auditor's
    modeled data-dependent bits, and the empirical Shannon entropy of
    spy-trace fingerprints over eight probe queries that differ only
    in a hidden range bound (0 bits under the fully-oblivious path:
    the hidden constants are indistinguishable on the wire). *)

val write_heavy :
  ?metrics:Ghost_metrics.Metrics.t -> ?scale:Medical.scale -> unit -> Report.t
(** E23 (extension): a sustained write-heavy mix on the default
    device, whose delta log no compactor drains in the [flat] arm and
    one does in the [leveled] arm. Each round inserts a prescription
    batch, retires some older inserts, lets any compactor drain, and
    measures fenced window probes (visible root-key range + hidden
    predicate). The flat arm's p95 grows every round — its log stays
    all L0 and the DeltaScan reads all of it — while the leveled
    arm's stays bounded: run key fences skip non-overlapping pages and
    compaction folds tombstoned records away. Rows track log depth
    (L0 pages, run count and pages, physical records) per round. *)

(** {2 Ablations of design choices} *)

val ablation_exact_post : ?scale:Medical.scale -> unit -> Report.t
(** A1: exact verification joins vs pure-probabilistic Bloom
    post-filtering. *)

val ablation_bloom_fpr : ?scale:Medical.scale -> unit -> Report.t
(** A2: Bloom target false-positive rate vs RAM and absorbed FPs. *)

val ablation_hidden_fk_indexes : ?scale:Medical.scale -> unit -> Report.t
(** A3: climbing indexes on hidden foreign keys vs per-candidate
    checks. *)

val ablation_skew : ?scale:Medical.scale -> unit -> Report.t
(** A4: value-frequency skew vs the optimizer's strategy choice. *)

val ablation_deep_cross : ?scale:Medical.scale -> unit -> Report.t
(** A5: deep Cross-filtering — borrowing a descendant's index list at
    an intermediate level before the climb. *)

val all :
  ?scale:Medical.scale ->
  ?full:bool ->
  ?metrics:(string -> Ghost_metrics.Metrics.t option) ->
  unit ->
  (string * string * (unit -> Report.t)) list
(** The whole suite as (id, one-line description, thunk) triples —
    experiments run only when forced, so id filters (and [--list])
    don't pay for the rest. E1–E23, A1–A5; [full] raises E10 to the
    paper's one million prescriptions and E19 to 32 devices.

    [metrics] supplies, per experiment id, an optional registry for
    the instrumented experiments (E16–E23) to record into; defaults to
    none for all. *)
