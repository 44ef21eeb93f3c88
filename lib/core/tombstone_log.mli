module Flash = Ghost_flash.Flash

(** Append-only deletion log.

    Deletes face the same NAND constraint as inserts: the SKT rows and
    climbing-index lists of a deleted tuple cannot be rewritten in
    place. Instead the deleted root id is appended here; at query time
    the executor loads the (small) log into a sorted RAM array and
    filters candidates against it. Offline reorganization compacts the
    database and empties the log.

    Like inserts, deletes apply to the schema root only. *)

type t

val create : ?cache:Ghost_device.Page_cache.t -> Flash.t -> t
(** The ids live in a {!Ghost_store.Append_log} of 4-byte records
    tagged ["GTMB"]: sealed pages, recoverable after a power cut.
    [cache] — the device's shared page cache; each program invalidates
    the page it writes there (see {!Delta_log.create}). *)

val count : t -> int
val size_bytes : t -> int
val dead_bytes : t -> int

val acknowledged : t -> int
(** Ids whose program completed (see
    {!Ghost_store.Append_log.acknowledged}). *)

val append : t -> int list -> unit
(** Records a batch of deletions as one
    {!Ghost_store.Append_log.append}: one program per page the batch
    fills and one for its last partial page (same tail-page
    re-programming discipline as {!Delta_log}). Duplicates are the
    caller's responsibility. A power cut mid-batch leaves the ids of
    the completed programs durable; on [Flash.Power_cut] the log
    refuses further appends until {!recover} runs, and {!mem} may
    answer for the torn ids until then. *)

val needs_recovery : t -> bool

type recovery = Ghost_store.Append_log.recovery = {
  recovered : int;  (** ids in the log after recovery *)
  lost : int;  (** volatile ids dropped (the torn program's) *)
  torn_pages : int;  (** pages found torn or checksum-invalid *)
}

val recover : t -> recovery
(** Post-crash scan (metered); see {!Ghost_store.Append_log.recover}.
    Rebuilds the host-side membership table from the records that walk
    parsed, with no further read. *)

val mem : t -> int -> bool
(** Host-side membership (validation); not Flash-metered. *)

val pages : t -> int list
(** Every live Flash page of the log, oldest first: the pages
    {!load_sorted} reads. *)

val page_intact : t -> page:int -> bool option
(** [None] when [page] is not a live page of the log; otherwise
    whether a fresh read of it passes its seal checks (see
    {!Ghost_store.Append_log.page_intact}). *)

val load_sorted : t -> int array
(** Query-time load: reads the whole log off Flash (metered) and
    returns the ids sorted. *)
