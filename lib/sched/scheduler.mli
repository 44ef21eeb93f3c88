module Device = Ghost_device.Device
module Ram = Ghost_device.Ram
module Exec = Ghostdb.Exec
module Cost = Ghostdb.Cost
module Plan = Ghostdb.Plan
module Catalog = Ghostdb.Catalog
module Public_store = Ghost_public.Public_store

(** Multi-session query scheduler for the shared device.

    The paper's device serves one user, but nothing in the architecture
    forbids several principals sharing one smart USB stick — a family
    dongle, a ward terminal. This module multiplexes the single
    simulated device between concurrent query {e sessions}:

    - {b Admission control}: a session declares its working RAM; the
      scheduler reserves that many bytes from the shared {!Ram} arena
      before dispatching it, and queues it (strict FIFO, no bypass)
      while the reservation does not fit. While a session runs its own
      slice, its reservation is released to it (resized to zero) so the
      executor draws real allocations from the headroom the admission
      promised; between slices the unused remainder is re-reserved so a
      later admission cannot eat it.
    - {b Time-sliced execution}: each dispatch runs the session's
      {!Exec.step_machine} for one quantum of simulated device
      microseconds (Flash + CPU + USB on the device clock), then
      re-enters the policy. Execution is cooperative and serialized —
      the device has one CPU — so slices never overlap.
    - {b Accounting}: every slice is bracketed with
      {!Device.set_session}, so trace events, spy reports
      ({!Ghost_public.Spy.analyze} [?session]) and privacy audits
      ({!Ghostdb.Privacy.audit} [?session]) attribute per session; the
      device-clock delta of each slice is accumulated into the
      session's {!Device.usage}.
    - {b Isolation of spills}: each admitted session gets a private
      scratch Flash region ({!Device.new_scratch_region}, pooled and
      reused), so cancelling one session and erasing its spill runs
      wholesale cannot tear another session's external sort.

    A single session dispatched with [quantum_us = infinity] (the
    default) reproduces {!Exec.run} exactly: same rows, same operator
    stats, same device clock, same trace (modulo the session stamp). *)

type policy =
  | Fifo  (** run the earliest-admitted session to completion *)
  | Round_robin  (** rotate on every quantum expiry *)
  | Cost_based
      (** shortest remaining cost first: on every dispatch pick the
          runnable session minimizing {!Cost.remaining_us} of its
          planner estimate against the device time already charged to
          it *)

val policy_name : policy -> string

type outcome =
  | Completed of Exec.result
  | Cancelled of string  (** the reason: explicit cancel or "deadline" *)
  | Failed of exn  (** the plan raised (e.g. {!Ram.Ram_exceeded}) *)

type finished = {
  f_id : int;
  f_label : string;
  f_outcome : outcome;
  f_submitted_us : float;  (** device clock at {!submit} *)
  f_admitted_us : float;
      (** device clock when the reservation fit; NaN for a session
          cancelled while still queued *)
  f_finished_us : float;  (** device clock at completion/cancel/failure *)
  f_slices : int;  (** dispatches the session received *)
  f_usage : Device.usage;  (** device work charged to the session *)
}

type stats = {
  submitted : int;
  queued : int;  (** awaiting admission now *)
  runnable : int;  (** admitted, not finished *)
  finished : int;  (** total completed + cancelled + failed *)
  admission_blocked : int;
      (** dispatch rounds that left at least one session queued because
          its RAM reservation did not fit *)
}

type t

val create :
  ?policy:policy ->
  ?quantum_us:float ->
  Catalog.t ->
  Public_store.t ->
  t
(** A scheduler over the catalog's device. [policy] defaults to
    {!Fifo}; [quantum_us] (default [infinity]) is the slice length in
    simulated microseconds. Every execution runs with {!Exec.run}'s
    defaults (see {!Exec.start}). Raises [Invalid_argument] on a
    non-positive quantum. *)

val policy : t -> policy
val quantum_us : t -> float

val submit :
  t ->
  ?label:string ->
  ?working_ram:int ->
  ?deadline_us:float ->
  Plan.t ->
  int
(** Registers a session for the plan and returns its id. [working_ram]
    (default: the planner's [est_ram_bytes] estimate, floored at 4 KiB
    and capped at a quarter of the RAM budget) is the admission
    reservation; it is clamped to the arena budget. [deadline_us] is
    relative to submission on the device clock: a session still
    unfinished when the clock passes [submitted + deadline_us] is
    cancelled with reason ["deadline"], whether queued or running.
    [label] defaults to a prefix of the plan's query text. Nothing
    executes until {!step}. *)

val cancel : t -> ?reason:string -> int -> unit
(** Cancels a queued or runnable session: its execution is aborted
    through {!Exec.cancel} (deferred releases run, so its RAM cells
    come back), its reservation is freed and its scratch region is
    erased and returned to the pool. A no-op on a finished or unknown
    session id. *)

val step : t -> bool
(** One dispatch round: admit what fits, cancel expired deadlines,
    pick a session per the policy, run it for one quantum. Returns
    [false] when no session is queued or runnable (nothing happened).
    An exception raised by a plan is captured as its session's
    {!Failed} outcome, never thrown to the caller.

    When no session wants the device, the idle slice goes to
    background maintenance instead: the attached scrubber and
    compactor alternate first claim on successive idle slices (an idle
    task passes its slice to the other), and the step returns [true]
    while either has work pending — maintenance consumes exactly the
    slices queries leave free. *)

val run : t -> unit
(** Steps until every submitted session has finished — and, with a
    scrubber or compactor attached, until no scrub pass or compaction
    unit is pending. *)

val set_scrubber : t -> Ghost_scrub.Scrub.t option -> unit
(** Attaches (or detaches) a background scrubber (see
    {!Ghost_scrub.Scrub}) fed by idle dispatch slices. [None] (the
    default) keeps the idle path bit-identical to the seed. *)

val scrubber : t -> Ghost_scrub.Scrub.t option

val set_compactor : t -> Ghostdb.Compaction.t option -> unit
(** Attaches (or detaches) a background delta-log compactor (see
    {!Ghostdb.Compaction}) fed by idle dispatch slices, interleaved
    fairly with the scrubber. [None] (the default) keeps the idle path
    bit-identical to the seed. *)

val compactor : t -> Ghostdb.Compaction.t option

val poll_finished : t -> finished list
(** Sessions that finished since the last poll, in completion order. *)

val outcome : t -> int -> outcome option
(** [None] while the session is still queued or runnable. *)

val usage : t -> int -> Device.usage
(** Device work charged to the session so far ({!Device.zero_usage}
    for an unknown id). *)

val stats : t -> stats
