module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation

(** A second workload: the paper's introduction also motivates hiding
    {e corporate product information}. Here a retailer publishes its
    catalog and order dates but hides unit costs (margins!), discounts,
    customer identities and the purchase linkage.

    The tree differs from the medical schema: the fact table
    (LineItem) sits over a two-level Purchase → Customer chain plus a
    flat Product dimension, with cardinality ratios inverted relative
    to Figure 3 — useful for checking that nothing is tuned to one
    shape. *)

type scale = {
  customers : int;
  products : int;
  purchases : int;
  lineitems : int;
  theta : float;
}

val tiny : scale
val small : scale

val ddl : string
val schema : unit -> Schema.t

val segments : string array
val regions : string array
val categories : string array

val generate : scale -> (string * Relation.tuple list) list
(** Deterministic rows for the scale (a fixed seed). *)

val queries : (string * string) list
(** Named queries exercising hidden margins, customer privacy and
    aggregate reporting. *)
