module Trace = Ghost_device.Trace

(** Oblivious execution support: padding bounds, leakage accounting and
    trace fingerprints.

    The paper's guarantee stops at "the spy sees the query text and the
    visible data" — but the {e access pattern} on the spy-visible links
    still leaks: how many visible ids ship, how many result tuples come
    back, how deep the climbing-index walks go. This module holds the
    pure machinery the oblivious planner path is built from:

    - {b padding bounds}: round observed counts up to public bounds
      (power-of-two buckets, or the table cardinality itself), so the
      padded count ranges over few — or one — distinguishable values;
    - {b leakage model}: each trace event annotated with a
      {!Trace.obl} contributes [log2 obl_values] bits — the entropy of
      a uniform prior over the values the observable can take as the
      hidden data varies under fixed public bounds;
    - {b entropy estimation}: empirical Shannon entropy over observed
      trace fingerprints, for measuring residual leakage of the
      baseline executor experimentally (E22);
    - {b fingerprints}: a canonical rendering of the spy-visible trace
      whose byte-equality is the oblivious-mode guarantee: two queries
      sharing public bounds must produce equal fingerprints.

    Everything here is pure bookkeeping: nothing charges the simulated
    clock, so annotating baseline traces keeps them bit-identical. *)

type mode =
  | Off  (** the seed executor, bit-identical *)
  | Pad
      (** baseline plan and access pattern, but visible-id shipments,
          value streams and the result cardinality are padded to
          power-of-two buckets (fixed-width framing) *)
  | Full
      (** data-independent trace: full-cardinality padding, bound-depth
          sequential scans instead of climbing-index walks, uniform
          per-candidate work — the page-touch sequence and every
          spy-visible count depend only on schema and public bounds *)

val mode_name : mode -> string

(** {2 Padding bounds} *)

val next_pow2 : int -> int
(** Smallest power of two >= [max 1 n]. *)

val pad_count : bound:int -> int -> int
(** [pad_count ~bound n] — the power-of-two bucket of [n], capped at
    the public [bound] (a count can never exceed the table
    cardinality, so the cap leaks nothing). [0 <= n <= bound]
    required; an empty selection pads to 1, hiding emptiness. *)

val bucket_values : bound:int -> int
(** How many distinct values {!pad_count} takes over [0..bound] — the
    number of observable outcomes a power-of-two-padded count leaks
    between. [1] when [bound <= 1]. *)

val bits_of_values : int -> float
(** [log2 (max 1 values)] — the leakage of one observable under a
    uniform prior over its possible values. 0 for a single-valued
    (fully padded) observable. *)

val event_bits : Trace.event -> float
(** {!bits_of_values} of the event's {!Trace.obl} annotation; [0.] for
    unannotated events (their value is a function of public data
    only). *)

val trace_bits : ?session:int -> Trace.t -> float
(** Total modeled data-dependent bits over the (optionally
    per-session) trace: the sum of {!event_bits}. *)

(** {2 Empirical entropy} *)

module Entropy : sig
  val of_weights : float list -> float
  (** Shannon entropy (bits) of the distribution proportional to the
      non-negative weights. [0.] on an empty or single-outcome
      distribution. *)

  val of_observations : string list -> float
  (** Empirical entropy of the multiset: outcomes weighted by their
      observed frequency. Equal observations -> 0 bits. *)
end

(** {2 Trace fingerprints} *)

val fingerprint : ?session:int -> Trace.t -> string
(** Canonical rendering of the spy-visible trace: one line per event —
    link, payload shape (constructor, table, column, count) and byte
    size. [Query_text] payloads render as their byte length only: the
    query text is the paper's declared leak, and eliding it makes
    fingerprint equality exactly the {e access-pattern} guarantee of
    oblivious mode. Sequence numbers are renumbered from 0 so traces
    taken at different offsets compare equal. *)
