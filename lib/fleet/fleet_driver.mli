module Value = Ghost_kernel.Value
module Scheduler = Ghost_sched.Scheduler

(** Closed-loop multi-device workload driver (experiment E19).

    Extends the single-device driver of {!Ghost_sched.Workload_driver}
    to a {!Fleet}: each client owns a think-free loop — draw a query
    from the Zipf-ranked mix, scatter one sub-query to every shard
    through {e per-device schedulers} (PR 4 admission control and
    deadlines apply per device), gather, merge, repeat. The driver
    maintains one global simulated clock across devices by tracking a
    per-device offset and always advancing the device whose global
    time lags furthest behind, so the interleaving is deterministic.

    Robustness is exercised end to end: each sub-query carries a
    deadline derived from its cost estimate; a deadline cancellation
    is treated as a straggler and the read is hedged to the next
    replica ({!Fleet.pick_replica}); failed or killed sessions fail
    over the same way; a shard with no live replica left makes the
    query a tagged partial. [kills] unplug chosen devices at chosen
    global times mid-workload — the chaos sweeps of the acceptance
    tests and E19's availability-under-failure rows. *)

type spec = {
  clients : int;
  queries_per_client : int;
  theta : float;  (** Zipf skew over the cost-ranked mix *)
  seed : int;
  mix : (string * string) list;  (** (name, sql) *)
  deadline_factor : float;
      (** sub-query deadline = factor × max(estimate, 1 ms) × clients
          on the serving device's clock — the straggler detector that
          triggers hedged reads. Armed only when the hedge has
          somewhere to go (an untried live replica, or a further shard
          for a roaming read): a deadline with no alternative would
          turn load into spurious unavailability. *)
}

val default_spec : spec
(** 8 clients, 4 queries each, theta 1.1, seed 42, the demo mix,
    deadline factor 8. *)

type kill = {
  kill_at_us : float;  (** global simulated time of the unplug *)
  kill_shard : int;
  kill_replica : int;
}

type query_outcome = {
  qo_client : int;
  qo_name : string;
  qo_rows : Value.t array list;  (** merged, remapped, post-processed *)
  qo_complete : bool;
  qo_unreachable : int list;
  qo_latency_us : float;
}

type summary = {
  shards : int;
  replicas : int;
  clients : int;
  completed : int;  (** queries with a complete result *)
  partial : int;  (** queries degraded to a tagged partial *)
  failovers : int;  (** sub-queries retried after an error or a dead device *)
  hedges : int;  (** sub-queries hedged after a deadline cancellation *)
  unreachable_subs : int;  (** sub-queries no replica could serve *)
  makespan_us : float;
  throughput_qps : float;
  latency_p50_us : float;
  latency_p95_us : float;
  availability : float;  (** completed / (completed + partial) *)
}

val run :
  ?kills:kill list ->
  ?on_outcome:(query_outcome -> unit) ->
  Fleet.t ->
  spec ->
  summary
(** Every query terminates: completed, or partial once every replica
    of some shard is dead or past its retry budget. Each device's
    scheduler runs {!Scheduler.Fifo} with an infinite quantum.
    Deterministic for a given fleet, spec and kill list. *)

val pp_summary : Format.formatter -> summary -> unit
