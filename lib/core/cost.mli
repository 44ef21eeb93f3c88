module Bind = Ghost_sql.Bind

(** Analytic cost model.

    Estimates a plan's simulated execution time from the catalog
    statistics and the device configuration, mirroring the executor's
    cost structure: climbing-index traversals (directory probes + list
    bytes), climbs of shipped id lists (per-id locator reads, list
    bytes, hierarchical merge passes), USB transfers, Bloom
    build/probe CPU, SKT accesses for surviving candidates (none for
    an index-only plan, see {!Plan.reads_skt}), hidden
    column checks, and projection joins (RAM hash vs external sort).
    One estimator covers every {!Plan.oblivious} mode and makes the
    executor's three shape choices: [Pad] pads the same terms to
    power-of-two buckets, while [Full] prices the fixed shape — one
    full-cardinality frame per visible predicate, a bound-depth SKT
    scan of every root row, every hidden predicate checked on every
    row (a paged scan of its column, into a bitmap below the root),
    the whole delta log and full-column streams with every row
    kept, emission padded to the public bound — so a [Full] estimate
    depends on the schema and public bounds alone (selectivities only
    predict [est_results]).
    When the device is configured with a shared page cache
    ([page_cache_frames > 0]) the Flash components of the estimate are
    discounted by an expected hit ratio, derived from the frame-pool
    size against the hot working set (index directories + SKT rows +
    hidden column stores); the scratch region is never discounted.
    The absolute numbers are approximations; what the optimizer needs
    is the {e ranking}, dominated by the Pre-filter climb volume vs the
    Post-filter candidate volume. *)

type estimate = {
  est_time_us : float;
  est_candidates : int;  (** expected candidates after Pre-filtering *)
  est_results : int;  (** expected result cardinality *)
  est_ram_bytes : int;  (** main resident structures (Bloom filters) *)
  est_usb_bytes : int;
  breakdown : (string * float) list;  (** per-component microseconds *)
}

val estimate : Catalog.t -> Plan.t -> estimate

val remaining_us : estimate -> spent_us:float -> float
(** [remaining_us e ~spent_us] is the estimated device time the plan
    still needs after [spent_us] microseconds have already been charged
    to it, floored at zero. The scheduler's
    shortest-remaining-cost-first policy ranks runnable sessions by
    this value on every dispatch. *)

val pp : Format.formatter -> estimate -> unit
