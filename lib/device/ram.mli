(** The secure chip's RAM arena.

    The chip has only tens of kilobytes of RAM (the smaller the silicon
    die, the harder it is to snoop — Section 3 of the paper), and every
    device-side buffer must fit it. The arena is an {e accounting}
    structure: allocations reserve simulated bytes against a hard
    budget and raise {!Ram_exceeded} on overflow, which forces plans to
    stream, spill to Flash, or shrink their Bloom filters — exactly the
    algorithmic pressure the real hardware exerts. *)

type t

exception Ram_exceeded of {
  label : string;
  requested : int;
  in_use : int;
  budget : int;
}

type cell
(** A live allocation. *)

val create : budget:int -> t
(** [budget] in bytes (the demo device default is 64 KiB). *)

val budget : t -> int
val in_use : t -> int
val peak : t -> int
(** High-water mark since creation. *)

val alloc : t -> label:string -> int -> cell
(** Raises {!Ram_exceeded} when the budget would be exceeded. *)

val free : t -> cell -> unit
(** Double frees are ignored (the cell is already returned). *)

val resize : t -> cell -> int -> unit
(** Grow or shrink a live allocation in place (e.g. a buffer that
    doubles); raises {!Ram_exceeded} on overflow and
    [Invalid_argument] on a freed cell. *)

val with_alloc : t -> label:string -> int -> (cell -> 'a) -> 'a
(** Allocates, runs, and frees even on exception. *)

val would_fit : t -> int -> bool
(** True when an allocation of that many bytes would currently
    succeed (used by the optimizer to pick RAM-resident vs spilled
    algorithms). *)

(** {2 Measurement scopes}

    The demo GUI reports {e local} RAM consumption per plan operator.
    A scope observes the high-water mark reached while it is open. *)

type scope

val open_scope : t -> scope

val close_scope : t -> scope -> int
(** Closes and returns the scope's peak. *)
