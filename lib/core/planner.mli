module Bind = Ghost_sql.Bind

(** Plan enumeration and cost-based choice.

    Section 4: "Depending on the selectivities, a Pre-filtering or
    Post-filtering strategy can be selected per predicate", plus the
    Cross variants — "this leads to a large panel of candidate plans".
    [enumerate] produces that panel (bounded); [best] picks by the cost
    model. The named constructors build the canonical plans the demo
    compares (Figure 6's P1, P2, ...). *)

exception Planning_error of string

val root_of : Catalog.t -> Bind.query -> string
(** The subtree root the query executes under. *)

val enumerate : Catalog.t -> Bind.query -> Plan.t list
(** All valid strategy combinations, capped at 512 plans. Hidden
    predicates without a climbing index are forced to [H_check]. *)

val best : Catalog.t -> Bind.query -> Plan.t * Cost.estimate
(** Cost-optimal plan. Raises {!Planning_error} on an empty panel
    (cannot happen for a bound query). *)

val with_estimates : Catalog.t -> Bind.query -> (Plan.t * Cost.estimate) list
(** The panel sorted by estimated time (the demo's plan-game view). *)

(** {2 Canonical plans} *)

val all_pre : Catalog.t -> Bind.query -> Plan.t
(** Every predicate Pre-filtered (the "most intuitive QEP" of
    Section 4). *)

val all_post : Catalog.t -> Bind.query -> Plan.t
(** Hidden predicates through their indexes, every visible predicate
    Post-filtered (the Figure 5 plan). *)

val cross : Catalog.t -> Bind.query -> Plan.t
(** Cross-filtering wherever a table carries both hidden and visible
    predicates; Pre elsewhere. *)

val oblivious : Catalog.t -> Bind.query -> Plan.t
(** The single fixed-shape plan ([Plan.oblivious = Full]): hidden
    predicates as checks on every row of a bound-depth scan,
    visible predicates as shipped-list membership — no data-dependent
    index walks, so the executor can make the spy-visible trace a
    function of schema and public bounds alone. *)

val uniform : Catalog.t -> Bind.query -> Plan.visible_strategy -> Plan.t
(** Applies one visible strategy to every group (hidden predicates use
    their indexes). Cross variants fall back to the corresponding
    non-cross strategy on tables without an indexed hidden
    predicate. *)
