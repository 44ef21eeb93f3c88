module Cursor = Ghost_kernel.Cursor
module Resources = Ghost_kernel.Resources
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

(** External merge sort of fixed-width records under the RAM budget.

    Used by the projection phase when the visible (id, value) stream
    joining the result does not fit the arena as a hash table: result
    rows are sorted by the join id on the scratch Flash, merge-joined
    against the incoming stream, and the Flash write cost of the runs
    is exactly the penalty the optimizer weighs. Also the workhorse of
    the grace-hash-join baseline. *)

val log2_floor : int -> int
(** [log2_floor k] — ⌊log2 k⌋, and 1 when that is smaller (any [k < 4]):
    the comparisons charged per item of a sort of [k] items and per
    record a [k]-way heap merge emits, here and in {!Merge_union}. *)

val fits : ram:Ram.t -> scratch:Flash.t -> record_bytes:int -> records:int -> bool
(** Whether {!sort} of [records] records fits the free arena: in RAM,
    or, when it must spill, with runs of at least two records and a
    2-way merge beside the one-page write buffer. *)

val sort :
  ram:Ram.t ->
  scratch:Flash.t ->
  resources:Resources.t ->
  ?cpu:(int -> unit) ->
  record_bytes:int ->
  compare:(bytes -> bytes -> int) ->
  bytes Cursor.t ->
  bytes Cursor.t
(** Sorts the records of the input cursor (each exactly
    [record_bytes] long). When the whole input fits in half the free
    arena it is sorted in RAM without touching Flash; otherwise sorted
    runs are spilled to [scratch] through a one-page write buffer and
    k-way merged through 512-byte read buffers, with the fan-in the
    arena allows. Below two pages of free arena the runs and read
    buffers shrink so the write buffer fits beside them (see {!fits}).
    The output cursor's resources are released through [resources].
    Raises [Invalid_argument] on a record of the wrong width. *)
