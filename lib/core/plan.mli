module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Oblivious = Ghost_oblivious.Oblivious

(** Physical plans: the Pre- / Post- / Cross-filtering strategy space
    of Section 4.

    A plan fixes, for every table carrying predicates, how its
    selections reach the subtree root [R]:

    - hidden predicates either traverse their climbing index
      ({!H_index}) or are checked per candidate against the on-device
      column store ({!H_check});
    - visible predicates are either {e Pre-filtered} — the matching id
      list is shipped into the device and climbed to [R] through the
      key climbing index — or {e Post-filtered} — streamed into a
      Bloom filter probed after the hidden joins; the {e Cross}
      variants intersect the visible ids with the hidden predicates'
      own-level index lists first (before climbing, resp. before
      filling the Bloom filter). *)

type hidden_strategy =
  | H_index  (** climbing-index traversal (Pre-filtering) *)
  | H_check  (** per-candidate read of the hidden column (Post) *)

type visible_strategy =
  | V_pre
  | V_post
  | V_cross_pre
  | V_cross_post

val hidden_strategy_name : hidden_strategy -> string
val visible_strategy_name : visible_strategy -> string

type hidden_pred = {
  h_pred : Predicate.t;
  h_strategy : hidden_strategy;
}

type group = {
  g_table : string;
  g_hidden : hidden_pred list;
  g_visible : Predicate.t list;  (** all visible atoms on this table *)
  g_visible_strategy : visible_strategy;  (** meaningful when [g_visible <> []] *)
  g_borrowed : (string * Predicate.t) list;
      (** deep Cross-filtering (Section 4: selectivities of selections
          on intermediate tables combine with hidden selections on
          {e descendant} tables): indexed hidden predicates of
          descendant tables whose list {e at this table's level} is
          intersected with the shipped visible ids before the climb.
          Only meaningful with [V_cross_pre]. *)
}

type t = {
  query : Bind.query;
  root : string;  (** the subtree root R whose SKT drives execution *)
  groups : group list;
  label : string;  (** short human-readable strategy summary *)
  oblivious : Oblivious.mode;
      (** how much of the access pattern the executor hides: [Off]
          (the seed path, bit-identical), [Pad] (power-of-two padding
          at the metering sites, baseline access pattern) or [Full]
          (data-independent trace — see {!Exec}). Travels on the plan
          so the scheduler's step machines respect it without any
          scheduler change. *)
}

val make : ?oblivious:Oblivious.mode -> query:Bind.query -> root:string -> group list -> t
(** Computes the label ([oblivious] defaults to [Off] and suffixes the
    label when set). *)

val with_mode : t -> Oblivious.mode -> t
(** The same plan under another oblivious mode (label recomputed). *)

val describe : t -> string
(** Multi-line description (for the demo's plan-building phase). *)

(** {2 Plan shape}

    The facts the executor and the cost model both read off a plan. *)

val indexed_hidden : group -> hidden_pred list
(** The group's [H_index] hidden predicates, in order. *)

val pre_filtered : group -> bool
(** The group has visible predicates and Pre-filters them ([V_pre] or
    [V_cross_pre]): their shipped id list is climbed to the root. *)

val post_filtered : group -> bool
(** The group has visible predicates and Post-filters them ([V_post] or
    [V_cross_post]): their ids fill a Bloom filter probed per
    candidate. *)

val crossed : group -> bool
(** The group's visible ids are intersected at its own level with hidden
    index lists — its own [H_index] predicates', or borrowed ones under
    [V_cross_pre] — before the climb or the Bloom build. *)

val group_produces_pre_source : group -> bool
(** True when the group contributes a sorted R-id stream (some
    Pre-filtered predicate). *)

val reads_skt : t -> bool
(** True when a step after candidate generation reads an id below the
    root off the candidates' SKT rows: under [Full] (its bound-depth
    scan), or when a projected column (GROUP BY and aggregate arguments
    included), a Post-filtered group or an [H_check] predicate sits on
    a table below the root. When false the plan is index-only: the
    candidate root id is the whole id vector and no SKT row is read.
    A function of the plan alone, so the choice shows nothing about
    the data. *)

val reads_delta_values : Schema.t -> t -> bool
(** True when the delta scan reads the runs' value pages, which hold
    the root's own hidden column values: under [Full] (which reads the
    whole log), or when a hidden predicate or a projected column
    (GROUP BY and aggregate arguments included) sits on a hidden
    column of the root. Otherwise the scan reads the id pages alone:
    tombstones, visible selections, Bloom filters and every predicate
    below the root test ids only. A function of the plan and the
    schema alone; {!Exec}'s DeltaScan and {!Cost} both ask it. *)

type bitmap_fill =
  | Index_lists
      (** the climbing index's lists at the table's own level, streamed
          one at a time: they are disjoint, so nothing is merged *)
  | Column_scan
      (** one scan of the hidden column in id order, through a paged
          window, charging the same CPU for every value *)

val delta_bitmap : t -> group -> hidden_pred -> bitmap_fill option
(** [Some fill] for a hidden predicate of a group below the root that
    is tested on a bitmap of its table's matching ids, one bit at the
    row's id at that table's level, instead of a read of the column per
    row. Outside [Full] these are the [H_index] predicates, tested so
    by the delta scan alone: a root row inserted since the load is in no
    climbing index, but the row of the group's table it joins is, so the
    index's lists at that table's level hold its matching ids. Under
    [Full] every predicate below the root is, in the bound-depth scan
    and the delta scan alike: the column scan reads every value in id
    order, so the reads no longer follow the hidden foreign keys that
    lead to the table. [None] for root predicates (read off the root
    row) and for the [H_check] ones outside [Full] (read per row through
    their check reader). The cost model prices the same split. *)

val count_source : tombstones:int -> t -> (string * Predicate.t) option
(** [Some (table, pred)] when the plan is a [COUNT( * )] without GROUP
    BY whose only selection is one [H_index] hidden predicate on
    [table], outside [Full], and [tombstones] (the root's tombstone
    count) is 0. The predicate's lists at the root level are disjoint,
    so the executor sums their directory counts instead of reading any
    id, and the estimate prices that. A tombstoned row stays in the
    lists, so any tombstone rules counting out; the deletes that set
    one are spy-visible. Rows inserted since the load are still counted
    by the delta scan. *)

val visible_projections : Schema.t -> t -> (string * string * Value.ty) list
(** The visible non-key columns the query projects, as
    [(table, column, type)], sorted and deduplicated: each arrives as a
    value stream joined onto the rows. *)

val emit_row_width : Schema.t -> t -> int
(** Bytes one emitted row occupies on the display link: 4 bytes of
    framing per projected column plus the width of each non-key one;
    for an aggregate, the width of each output column's type
    ({!Bind.output_types}), so a [MIN] over a [CHAR(20)] takes 20. A
    function of the schema and the query alone. *)

val visible_selections : Schema.t -> t -> string -> Predicate.t list
(** The query's selections on visible columns of one table, in query
    order: the predicates the host applies to that table's streams. *)

val validate : t -> unit
(** Structural sanity: cross strategies require an [H_index] hidden
    predicate on the same table; raises [Invalid_argument]. *)
