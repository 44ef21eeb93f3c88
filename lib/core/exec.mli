module Value = Ghost_kernel.Value
module Device = Ghost_device.Device
module Flash = Ghost_flash.Flash
module Public_store = Ghost_public.Public_store
module Oblivious = Ghost_oblivious.Oblivious

(** The device-side query executor.

    Runs a {!Plan.t} over the catalog: Pre-filter sources are merged
    and intersected into candidate root ids ("Merge+Index" in the
    demo's Figure 6), the SKT is probed for surviving candidates, Bloom
    filters and hidden-column checks post-filter them, visible
    projection streams are joined (in RAM when they fit, by external
    sort on the scratch Flash otherwise), and result tuples leave only
    through the secure display channel.

    Every stage charges the device clock and the RAM arena, and
    reports the per-operator statistics the demo GUI shows (tuples
    processed, local RAM consumption, processing time).

    Every plan runs through this one pipeline; {!Plan.t.oblivious}
    only picks its shape. Under [Pad] the three length-bearing USB
    sites (id shipments, projection streams, result emission) are
    padded up to power-of-two buckets under their public bounds. Under
    [Full] the pipeline also takes its fixed shape: padded shipments
    and a bound-depth SKT scan, read page by page, instead of
    Pre-filter walks; uniform (non-short-circuit) predicate evaluation,
    with each hidden predicate below the root tested on a bitmap filled
    by one scan of its column; a whole-log delta scan; full-column
    streams and bound-padded emission. That makes the spy-visible trace
    (and the device clock) a function of schema and public bounds
    alone, save a projected hidden column below the root, which is
    still read row by row in SKT order. *)

type op_stats = {
  op_label : string;
  tuples_in : int;
  tuples_out : int;
  ram_peak : int;  (** bytes, high-water inside the operator *)
  usage : Device.usage;
}

type result = {
  rows : Value.t array list;  (** projected tuples, order unspecified *)
  row_count : int;
  ops : op_stats list;  (** in execution order *)
  total : Device.usage;
  elapsed_us : float;  (** simulated device time for the whole plan *)
  ram_peak : int;
  bloom_fp_candidates : int;
      (** candidates admitted by a Bloom filter and later rejected by
          the exact verification join (0 unless Post-filtering ran) *)
  oblivious : Oblivious.mode;  (** the plan's mode, echoed back *)
  padding_bytes : int;
      (** dummy bytes added by oblivious padding across id shipments,
          projection streams and result emission; always 0 under
          {!Oblivious.Off}. The trusted side strips the dummies:
          [rows] only ever holds real tuples. *)
}

exception Exec_error of string

val run :
  ?exact_post:bool ->
  ?bloom_fpr:float ->
  Catalog.t ->
  Public_store.t ->
  Plan.t ->
  result
(** [exact_post] (default true) joins a verification stream for every
    Post-filtered table so Bloom false positives never reach the
    result; switching it off gives the pure-probabilistic variant.
    [bloom_fpr] (default 0.01) is the target false-positive rate used
    to size Bloom filters (subject to the RAM budget); values outside
    the open interval (0, 1) raise [Invalid_argument]. *)

(** {2 Resumable execution}

    The multi-session scheduler runs a plan as a {e step machine}:
    {!start} prepares the execution, {!step} runs it for one quantum
    of simulated device microseconds (Flash + CPU + USB on the device
    clock) and returns {!Yielded} with the continuation captured, or
    {!Finished} with the result. A single machine stepped with an
    infinite quantum is bit-identical to {!run} — same rows, same
    trace, same device clock. Only one machine may be mid-step at a
    time (execution is cooperative, not parallel); the scheduler
    serializes slices on the shared device. *)

type step_machine

type step_outcome =
  | Yielded  (** quantum exhausted; call {!step} again to continue *)
  | Finished of result

exception Cancelled
(** Raised {e inside} the plan when {!cancel} interrupts a suspended
    execution, so deferred releases run; never escapes to callers. *)

val start :
  ?quantum_us:float ->
  ?scratch:Flash.t ->
  Catalog.t ->
  Public_store.t ->
  Plan.t ->
  step_machine
(** Prepares a resumable execution with {!run}'s defaults: exact Post
    verification and 1 % Bloom filters. [quantum_us] (default [infinity])
    is the slice length in simulated device microseconds — execution
    yields at the first clock charge past it, at tuple granularity.
    [scratch] overrides the spill region (the scheduler passes a
    per-session region from {!Device.new_scratch_region} so one
    session's reclaim cannot tear another's sort runs); default is the
    device's shared scratch. Nothing executes until the first
    {!step}. Raises [Invalid_argument] on a non-positive quantum. *)

val step : step_machine -> step_outcome
(** Runs one slice. An exception from the plan (e.g.
    {!Ghost_device.Ram.Ram_exceeded}) propagates after the machine is
    marked failed; stepping a failed or cancelled machine raises
    [Invalid_argument], stepping a finished one returns its result. *)

val cancel : step_machine -> unit
(** Aborts a pending or suspended execution, running its deferred
    releases (RAM cells, readers, scopes) so the arena comes back
    clean. Idempotent; a no-op on a finished machine. *)

val finished : step_machine -> result option

val pp_ops : Format.formatter -> op_stats list -> unit
