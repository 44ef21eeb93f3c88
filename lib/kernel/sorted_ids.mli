(** Algebra of strictly-increasing identifier arrays.

    Climbing-index entries, visible selection results and SKT probe
    lists are all sorted duplicate-free ID lists; plan execution is
    largely merging such lists. All functions assume (and produce)
    strictly increasing [int array]s. *)

val is_sorted : int array -> bool
(** Strictly increasing (hence duplicate-free). *)

val of_unsorted : int list -> int array
(** Sorts and deduplicates. *)

val intersect : int array -> int array -> int array
(** Galloping (exponential-search) intersection: O(m log(n/m)) when one
    side is much smaller. *)

val intersect_many : int array list -> int array
(** Intersection of all lists, smallest first. The intersection of an
    empty list of lists is undefined: raises [Invalid_argument]. *)

val union : int array -> int array -> int array
val union_many : int array list -> int array
val difference : int array -> int array -> int array

val member : int array -> int -> bool
(** Binary search. *)

val rank : int array -> int -> int
(** Number of elements strictly below the probe. *)

val iter_deltas : (int -> unit) -> int array -> unit
(** Iterates the gap sequence of a strictly increasing non-negative
    list under the shared delta convention
    [delta_i = id_i - id_{i-1} - 1] (with [id_{-1} = -1]) — the payload
    layout of {e Id_list} climbing-index entries and of the compact
    wire protocol, so encoders never re-derive gaps ad hoc. Raises
    [Invalid_argument] on an out-of-order or negative id. *)
