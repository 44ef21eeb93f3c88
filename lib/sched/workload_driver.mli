module Ghost_db = Ghostdb.Ghost_db

(** Closed-loop multi-session workload driver.

    Models [clients] concurrent principals sharing one device: each
    client keeps exactly one query in flight — it submits, waits for
    completion, then immediately submits its next — so the concurrency
    level stays constant at [clients] until the tail drains. There is
    no think time: the simulated clock only advances when the device
    works, so throughput and latency are properties of the scheduler,
    not of an arrival process.

    The query mix (default: the whole demonstration suite,
    {!Ghost_workload.Queries.all}) is ordered cheapest-first by the
    planner's estimate on the target database and sampled through a
    Zipfian distribution over ranks — cheap interactive queries
    dominate, expensive analytical ones are rare. That skew is what
    separates the policies: under FIFO a rare heavy query convoys
    every light query queued behind it (p95 explodes); round-robin and
    shortest-remaining-cost-first let light queries overtake. *)

type spec = {
  clients : int;  (** concurrent sessions (closed-loop multiprogramming) *)
  queries_per_client : int;
  theta : float;  (** Zipf exponent over the cost-ranked mix; 0 = uniform *)
  seed : int;
  mix : (string * string) list;
      (** (name, sql) candidates; rank order is decided by the planner
          estimate on the target database, not by list position *)
}

val default_spec : spec
(** 4 clients, 8 queries each, theta 1.1, seed 42, the full suite. *)

type summary = {
  policy : Scheduler.policy;
  quantum_us : float;
  clients : int;
  completed : int;
  cancelled : int;
  failed : int;
  makespan_us : float;  (** device time from first submit to last finish *)
  throughput_qps : float;  (** completed queries per simulated second *)
  latency_p50_us : float;
  latency_p95_us : float;
  latency_mean_us : float;
  latency_max_us : float;
      (** latency = completion minus submission on the device clock,
          over completed sessions only *)
}

val run :
  ?policy:Scheduler.policy ->
  ?quantum_us:float ->
  Ghost_db.t ->
  spec ->
  summary
(** Drives the workload to completion on [db]'s device and scheduler
    policy. Each query uses the optimizer's best plan (planned once per
    distinct query, outside the measured device time). Deterministic
    for a given (db, spec, policy, quantum). *)

val percentile : float array -> float -> float
(** [percentile sorted p]: the nearest-rank [p]-quantile ([p] in
    [0, 1]) of an ascending array; NaN when it is empty. *)

val pp_summary : Format.formatter -> summary -> unit
