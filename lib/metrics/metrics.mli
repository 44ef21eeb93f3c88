(** Device-clock-driven observability registry.

    GhostDB's whole argument is quantitative — the planner's choices
    are justified by Flash/RAM/USB cost asymmetries — so every
    performance-critical subsystem (executor, scheduler, page cache,
    reorganization) can report into one of these registries:

    - {b counters}: monotone integers (page reads, cache hits, trace
      messages);
    - {b gauges}: floats with accumulate semantics (simulated device
      microseconds per component);
    - {b histograms}: log-scale bucket histograms of simulated device
      microseconds, answering p50/p95/p99 with a bounded relative
      error;
    - {b spans}: named intervals with per-link/per-operator arguments,
      exported as Chrome [trace_event] JSON for flamegraph-style
      inspection;
    - {b calibration samples}: predicted-vs-measured device time per
      operator class, summarized into the cost-model calibration
      report.

    A registry is {e pure data} — no closures — so a device holding one
    still marshals into an image. All timestamps are supplied by the
    caller in simulated device microseconds ({!Ghost_device.Device}
    passes its clock); the registry never reads the wall clock, which
    keeps every export deterministic and CI-comparable.

    Recording is host-side bookkeeping only: it never charges the
    device clock, so outputs with a registry attached are bit-identical
    to outputs without one. A disabled handle is simply the absence of
    a registry (one [match] per call site). *)

type t

val create : ?max_spans:int -> unit -> t
(** An empty registry. [max_spans] (default 200_000) bounds the span
    store; spans past the cap are dropped and counted in the
    [metrics.spans_dropped] counter (the drop is never silent). *)

(** {2 Counters and gauges} *)

val incr : t -> ?by:int -> string -> unit
val counter : t -> string -> int
(** Current value; 0 for a name never incremented. *)

val add_gauge : t -> string -> float -> unit
(** Accumulates [v] into the gauge (creating it at 0). *)

val gauge : t -> string -> float option

(** {2 Histograms}

    Log-scale buckets with growth factor {!gamma} per bucket: an
    estimated quantile is within a factor [sqrt gamma] of a value
    actually observed at that rank (and clamped to the exact observed
    min/max). Values below 1.0 (including 0) share the first bucket. *)

val gamma : float
(** Bucket growth factor (2{^1/4} ~ 1.19): quantile estimates carry at
    most ~9% relative error. *)

val observe : t -> string -> float -> unit
(** Records a value (simulated microseconds) into the named histogram.
    Negative values raise [Invalid_argument]. *)

type histogram_stats = {
  count : int;
  min : float;  (** exact observed minimum; [nan] when empty *)
  max : float;  (** exact observed maximum; [nan] when empty *)
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

val histogram : t -> string -> histogram_stats option
val quantile : t -> string -> float -> float option
(** [quantile t name q] for [q] in [0, 1]; [None] for an unknown or
    empty histogram. Raises [Invalid_argument] outside [0, 1]. *)

(** {2 Spans (Chrome trace)} *)

val span :
  t ->
  name:string ->
  cat:string ->
  ?pid:int ->
  ?tid:int ->
  ?args:(string * float) list ->
  ts:float ->
  dur:float ->
  unit ->
  unit
(** Records a complete ("ph":"X") event. [ts] is the caller's device
    clock in microseconds (rebased by the registry's time origin, see
    {!rebase}); [pid]/[tid] group the flamegraph rows — the convention
    is pid 1 for the device's global clock (scheduler slices,
    reorganization phases) and pid 2 for per-session virtual time
    (executor operators), with [tid] the session id. *)

val span_count : t -> int
(** Spans retained (excludes dropped ones). *)

val rebase : t -> clock_now:float -> unit
(** Aligns the time origin so that events stamped from a clock
    currently at [clock_now] land after every span already recorded.
    Called when the registry is attached to a (possibly fresh) device,
    so one registry can profile a sequence of device instances without
    overlapping their timelines. *)

(** {2 Cost-model calibration} *)

val calibrate : t -> cls:string -> predicted_us:float -> measured_us:float -> unit
(** One predicted-vs-measured sample for an operator class (the
    planner's estimate against the device time actually charged). *)

type calibration_entry = {
  cal_class : string;
  samples : int;
  predicted_us : float;  (** sum over samples *)
  measured_us : float;  (** sum over samples *)
  rel_error : float;  (** |predicted - measured| / max(measured, 1) *)
  flagged : bool;  (** [rel_error > 1.0], i.e. a 2x misprediction *)
}

val calibration_report : t -> calibration_entry list
(** Per-class summary, sorted by class name. Samples are folded in a
    sorted order, so the sums do not depend on completion order. *)

val pp_calibration : Format.formatter -> calibration_entry list -> unit
(** A plain-text table with a verdict line — the calibration report
    artifact. *)

(** {2 Exporters} *)

val to_json : t -> string
(** The stable machine-readable [metrics.json]: [{"version", "counters",
    "gauges", "histograms", "calibration", "spans_recorded",
    "spans_dropped"}] with every map sorted by key. This is what the
    bench kit writes and the CI regression gate diffs. *)

val to_chrome_trace : t -> string
(** The span store as Chrome [trace_event] JSON (catapult / Perfetto's
    ["traceEvents"] format): load it in [chrome://tracing] or
    [ui.perfetto.dev] for flamegraph-style inspection. *)

val clear : t -> unit
(** Forgets everything (counters, histograms, spans, calibration); the
    time origin is kept. *)
