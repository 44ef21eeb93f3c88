module Cursor = Ghost_kernel.Cursor
module Resources = Ghost_kernel.Resources
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

(** RAM-bounded union of many sorted identifier lists.

    Climbing a {e set} of identifiers (the Pre-filtering of a visible
    selection: each shipped id owns one precomputed ancestor list)
    means unioning as many sorted lists as there are ids. The device
    cannot hold one buffer per list in tens of KB of RAM, so when the
    fan-in exceeds what the arena allows the union runs in hierarchical
    passes, materializing intermediate results on the scratch Flash —
    this is precisely the cost that makes Pre-filtering lose to
    Post-filtering on unselective visible predicates. *)

type source = unit -> int Cursor.t * (unit -> unit)
(** Opening a source yields the cursor and its release (closing the
    underlying Flash reader / freeing its RAM). Sources are single
    use. *)

val of_array : int array -> source
(** RAM-free source over an already-materialized array (e.g. a list
    being streamed in from USB). *)

val union :
  ram:Ram.t ->
  scratch:Flash.t ->
  resources:Resources.t ->
  ?cpu:(int -> unit) ->
  source list ->
  int Cursor.t
(** Duplicate-free sorted union. The admissible fan-in is half the
    free arena over a 256-byte charge per open source (at least 2);
    [cpu] is charged O(log fan-in) per element. Resources of the final
    pass are released through [resources]. *)
