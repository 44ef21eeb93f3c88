module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Device = Ghost_device.Device
module Bind = Ghost_sql.Bind
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Privacy = Ghostdb.Privacy

(** A fault-tolerant fleet of GhostDB devices.

    The paper's single 64 KiB smart-USB stick cannot serve production
    traffic. This module partitions a tree schema's {e root} (fact)
    table across N shards — by hash or by contiguous range of the root
    id — with a configurable replication factor R, and runs every
    query scatter–gather: each shard executes the query over its slice
    of the root rows (dimension tables are replicated everywhere), and
    the untrusted terminal merges the per-shard outputs.

    {b Re-keying.} Each shard's root slice is re-keyed to the dense
    [1..k] ids the loader requires, {e order-preserving}: local id
    order equals global id order, so monotone root-key predicates map
    to local ranges and the terminal can translate local ids back with
    a per-shard sorted array. Root ids are already spy-visible in the
    single-device protocol (Pre-filter id lists cross the USB link in
    the clear), so holding this mapping on the untrusted side reveals
    nothing new — see {!audit}.

    {b Robustness runtime.} Each replica device carries a health state
    machine (healthy → suspect → dead) driven by transport
    error/timeout counters; suspects are probed with a deterministic
    protocol ack (riding the device's seeded USB fault stream) before
    they serve again. A replica that exceeds a deadline-derived
    straggler budget is cancelled and the read is {e hedged} to the
    next replica; transport errors fail over the same way. When every
    replica of a shard is down, {!query} degrades gracefully: it
    returns the merged rows of the reachable shards, tagged with the
    unreachable shard ids.

    {b Merging and aggregates.} Shards execute the query with its
    aggregate / ORDER BY / LIMIT stripped, shipping base rows over the
    secure display channel; the trusted terminal side re-applies them
    over the merged multiset (exactly {!Ghost_sql.Aggregate.apply} and
    {!Ghost_sql.Postproc.apply}, the same functions the device
    executor uses). A partial result therefore aggregates reachable
    shards only — the [complete] flag says so.

    With one shard, one replica and no fault injection, {!query} is a
    pass-through to the single-instance path: rows, trace and clock
    stay bit-identical to the seed. *)

type partitioning =
  | Hash  (** multiplicative hash of the root id *)
  | Range  (** contiguous root-id ranges, near-equal cardinality *)

type topology = {
  shards : int;  (** N, partitions of the root table *)
  replicas : int;  (** R, identical devices per shard *)
  partitioning : partitioning;
}

val default_topology : topology
(** One shard, one replica, {!Range} — the paper's single device. *)

type health = Healthy | Suspect | Dead
(** A replica turns suspect after 1 consecutive transport failure and
    dead after 3. *)

type t

val create :
  ?device_config:Device.config ->
  ?per_device_config:(shard:int -> replica:int -> Device.config) ->
  ?topology:topology ->
  Schema.t ->
  (string * Relation.tuple list) list ->
  t
(** Partitions the rows and builds one {!Ghost_db} instance per
    (shard, replica). [per_device_config] gives each device its own
    config — per-device fault profiles for chaos sweeps — and wins
    over [device_config]. Raises [Invalid_argument] on a non-positive
    shard or replica count, or when the root table has fewer rows than
    there are shards. *)

val topology : t -> topology
val schema : t -> Schema.t
val shard_count : t -> int
val replica_count : t -> int

val db : t -> shard:int -> replica:int -> Ghost_db.t
(** The instance backing one replica device. *)

val globals : t -> shard:int -> int array
(** The shard's assigned global root ids, ascending: local id [l]
    (dense, 1-based) stands for global id [(globals t ~shard).(l-1)].
    Held by the untrusted merge layer. *)

val shard_of_global : t -> int -> int
(** Which shard owns a global root id. *)

val bind : t -> string -> Bind.query
(** Parse + resolve a SELECT against the fleet's schema. *)

val scatters : t -> Bind.query -> bool
(** True when the query's FROM list includes the partitioned root
    table, so it must scatter to every shard. A query over dimension
    tables only (fully replicated) routes to a single shard and roams
    to the next shard when no replica there serves. *)

(** {2 Health runtime}

    Shared by {!query} and the multi-device workload driver
    ({!Fleet_driver}): both report transport outcomes here and select
    replicas through {!pick_replica}. *)

val health : t -> shard:int -> replica:int -> health

val kill : t -> shard:int -> replica:int -> unit
(** Chaos switch: the device drops off the bus — probes and attempts
    against it fail without touching its clock, and its state goes
    dead. Queries in flight on a scheduler must be cancelled by the
    caller (the driver does). *)

val revive : t -> shard:int -> replica:int -> unit
(** Plugs the device back in as suspect: it must pass a probe before
    serving again. *)

val note_success : t -> shard:int -> replica:int -> unit
val note_error : t -> shard:int -> replica:int -> unit
val note_timeout : t -> shard:int -> replica:int -> unit

val probe : t -> shard:int -> replica:int -> bool
(** One protocol-ack probe ({!Device.emit_ack}), metered on the
    replica's clock and subject to its seeded USB fault model; updates
    the health machine with the outcome. False when forced down. *)

val pick_replica : t -> shard:int -> exclude:int list -> int option
(** The replica the shard's next read should go to: healthy replicas
    first, then suspects (each probed once before being returned), in
    a deterministically rotated order; dead and excluded replicas are
    skipped. [None] when no replica is reachable. *)

val set_chaos_hook : t -> (shard:int -> replica:int -> unit) option -> unit
(** Test hook, invoked just before every execution attempt of
    {!query} with the target device — a chaos test kills devices at
    exact points of the scatter. *)

type replica_stats = {
  r_state : health;
  r_errors : int;  (** transport errors observed *)
  r_timeouts : int;  (** straggler/deadline timeouts observed *)
  r_integrity_failures : int;
      (** reads that raised a persistent {!Flash.Integrity_error} —
          damaged cells, not a flaky bus; the replica stays wrong
          until repaired *)
  r_probes : int;
  r_probe_failures : int;
}

val replica_stats : t -> shard:int -> replica:int -> replica_stats

(** {2 Scatter–gather plumbing}

    Exposed for the workload driver, which scatters through per-device
    schedulers instead of the serial path of {!query}. *)

val subquery : t -> shard:int -> Bind.query -> Bind.query
(** The query one shard executes: aggregate / ORDER BY / LIMIT
    stripped, root-key predicates rewritten through the shard's
    order-preserving id map (an empty local range becomes a
    never-matching predicate). *)

val remap : t -> Bind.query -> shard:int -> Value.t array list -> Value.t array list
(** Translates root-key projection columns of a shard's output back to
    global ids. *)

val merge : t -> Bind.query -> Value.t array list -> Value.t array list
(** Applies the query's aggregate, ORDER BY and LIMIT to the
    concatenated (already remapped) shard outputs. *)

(** {2 Queries} *)

type shard_report = {
  sr_shard : int;
  sr_served_by : int option;  (** replica that answered; [None] = unreachable *)
  sr_attempts : int;  (** execution attempts, including hedges *)
  sr_hedged : bool;  (** a straggler timeout moved the read to a replica *)
  sr_failed_over : bool;  (** a transport error moved the read to a replica *)
  sr_elapsed_us : float;
      (** sequential device time the shard's read consumed, wasted
          straggler budgets included *)
}

type result = {
  rows : Value.t array list;
  row_count : int;
  complete : bool;  (** false when any shard was unreachable *)
  unreachable : int list;  (** shard ids that no replica could serve *)
  elapsed_us : float;
      (** fleet latency: max over shards (devices work in parallel) *)
  shard_reports : shard_report list;
}

val query : t -> string -> result
(** Scatter–gather with hedging, failover and graceful degradation, as
    described above. A replica still running past 4× the planner's
    time estimate is cancelled and the read hedged to the next replica
    (only when one is live). Single shard + single replica is a pass-through
    to {!Ghost_db.query} (bit-identical to the seed path). A replica
    whose read raises a persistent {!Flash.Integrity_error} is treated
    like a transport failure — the read fails over and the health
    machine demotes it — but is counted separately
    ([r_integrity_failures]): its damage persists until a repair. *)

(** {2 Anti-entropy and repair}

    Replicas of one shard are loaded from identical rows by the
    deterministic loader, so their structure pages are bit-identical.
    {!anti_entropy} exploits that: each replica's structure pages are
    scanned once (full-page reads on its own clock, data-independent
    order), folded into a CRC-32 region digest and trailer-checked.
    A replica with failing trailers — or a digest diverging from a
    clean peer's — is rebuilt wholesale from that peer's logical
    snapshot through the phased loader, exactly like a reorganize. *)

type repair_report = {
  rr_shard : int;
  rr_replica : int;
  rr_pages : int;  (** structure pages scanned *)
  rr_bad_pages : int;  (** pages whose verification failed *)
  rr_repaired : bool;  (** false when no clean peer was reachable *)
  rr_repair_us : float;
      (** device time of the rebuild: peer snapshot + fresh load *)
}

val anti_entropy : t -> repair_report list
(** One scan-and-repair round over every shard with at least two
    replicas (forced-down replicas are skipped). Returns one report
    per replica found corrupt or divergent, in (shard, replica)
    order. A repaired replica re-enters as suspect — it must pass a
    probe before serving again — and its device's [repair_rebuilds]
    counter is bumped. *)

val repair : t -> shard:int -> replica:int -> from:int -> float
(** Force-rebuild one replica from a named peer, returning the device
    time spent. Raises [Invalid_argument] when [replica = from], an
    index is out of range, or the peer has pending deletes (a
    compacting snapshot would renumber root ids and desynchronize the
    shard's global id map — reorganize the peer first). *)

(** {2 Observability} *)

val audits : t -> ((int * int) * Privacy.verdict) list
(** Per-device audit, keyed by (shard, replica). *)

val audit : t -> Privacy.verdict
(** The fleet-level audit: every device's boundary trace must pass the
    single-device auditor — each device sees the query text and its
    own visible-data accesses, nothing else, and the merge layer only
    handles data the spy model already concedes (visible columns and
    root-id lists). Violations are prefixed with their device. *)

val set_metrics : t -> Ghost_metrics.Metrics.t option -> unit
(** Attaches one registry to every device (per-device totals are
    flushed into shared counters; see {!Device.set_metrics}). *)

val flush_metrics : t -> unit
