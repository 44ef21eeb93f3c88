module Value = Ghost_kernel.Value
module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Predicate = Ghost_relation.Predicate

(** Climbing indexes (Section 4, Figure 4 of the paper).

    A climbing index on column [T.c] maps each value to a sorted list
    of [T] identifiers {e and} to sorted lists of identifiers of every
    table on the path from [T] up to the subtree root: the joins along
    the path are precomputed inside the index, so a hidden selection
    becomes root-level identifiers in a single index traversal.

    Two directory layouts share the list storage:

    - {e sorted} — attribute indexes: fixed-width entries (16-byte
      order-preserving key prefix + full-key pointer + per-level list
      locators) sorted by value, binary-searched page by page;
      equality, ranges and IN are supported.
    - {e dense} — key indexes ("the climbing index on Vis.VisID"): one
      entry per identifier, directly addressed, used to climb identifier
      lists shipped from the visible side.

    All query-time access goes through Flash readers charged to the
    arena; lists are returned as {!Merge_union.source}s so the caller
    controls fan-in. *)

type t

(** {2 Building (load time)} *)

val build_sorted :
  Flash.t ->
  table:string ->
  column:string ->
  levels:string list ->
  (Value.t * int array array) list ->
  t
(** [levels] — table names, the indexed table first, then its climb
    path to the root. Entries must be sorted by {!Value.compare} with
    distinct values; each [int array array] holds one strictly
    increasing id list per level. Raises [Invalid_argument] on
    unsorted/misaligned input. *)

val build_dense :
  Flash.t ->
  table:string ->
  count:int ->
  levels:string list ->
  (int -> int array array) ->
  t
(** Dense key index for ids [1..count]. [levels] — the climb path
    {e above} the table (parent first); the function gives the
    per-level lists of an id. *)

(** {2 Introspection} *)

val table : t -> string
val column : t -> string option
(** [None] for a dense key index. *)

val levels : t -> string list
val level_pos : t -> string -> int
(** Raises [Not_found]. *)

val entry_count : t -> int
val size_bytes : t -> int
(** Directory + key blob + list blob. *)

val directory_bytes : t -> int
(** Directory + key blob only — the repeatedly-probed hot part, which
    is what the cost model counts toward the page-cache working set. *)

val pages : t -> int list
(** Flash pages of all three segments (directory, key blob, list
    blob), in layout order. *)

(** {2 Query-time lookups}

    All lookups accept the device's shared page [cache]; directory
    probes, key comparisons and list decoding then serve resident
    pages from RAM (see {!Pager.Reader.open_}). *)

val lookup_eq :
  ram:Ram.t -> ?cache:Pager.Cache.t -> t -> Value.t -> level:string ->
  Merge_union.source option
(** The id list of one value at one level; [None] when the value is
    absent. Binary search on the directory: O(log n) partial-page
    reads. *)

val lookup_cmp :
  ram:Ram.t -> ?cache:Pager.Cache.t -> t -> Predicate.comparison ->
  level:string -> Merge_union.source list
(** One source per matching value (range scan of the directory). *)

val count_cmp :
  ram:Ram.t -> ?cache:Pager.Cache.t -> t -> Predicate.comparison ->
  level:string -> int * int
(** [(entries, ids)]: how many values {!lookup_cmp} selects and the
    summed lengths of their lists at [level], read off the directory's
    locators with the same page reads and no list read. The lists of
    distinct values are disjoint at every level (a row there reaches
    one row of the indexed table), so [ids] is the size of their
    union. *)

val lookup_id :
  ram:Ram.t -> ?cache:Pager.Cache.t -> t -> int -> level:string ->
  Merge_union.source
(** Dense directories only: the ancestor list of one identifier (a
    direct-addressed locator read). Ids out of range yield an empty
    source. *)

val count_eq :
  ram:Ram.t -> ?cache:Pager.Cache.t -> t -> Value.t -> level:string -> int
(** Cardinality of {!lookup_eq} without reading the list. *)
