(** Minimal binary min-heap, used for k-way merges. *)

type 'a t

val create : cmp:('a -> 'a -> int) -> 'a t
val size : 'a t -> int
val push : 'a t -> 'a -> unit
val pop : 'a t -> 'a option
(** Smallest element, or [None] when empty. *)

val peek : 'a t -> 'a option
