module Device = Ghost_device.Device

(** Background delta-log compactor.

    Drives {!Delta_log.compact_step} across every delta log of a
    catalog in small, bounded slices — the write-path counterpart of
    the Flash scrubber, designed for the same scheduler idle slices
    (see {!Ghost_sched.Scheduler.set_compactor}). Each slice programs
    at most 2 run pages, so a slice's device-clock charge is bounded
    no matter how deep the leveled tree has grown, and the resumable
    unit state lives on the log itself (plain data), so a marshalled
    image resumes compaction exactly where it stopped.

    Tombstoned records are folded away during compaction ([drop] is
    the root tombstone membership test); the tombstone log itself is
    untouched — it still filters base-structure rows, which only
    offline reorganization can remove.

    {b Privacy.} Compaction traffic depends only on append and delete
    {e volume} — how many records accumulated and which public root
    ids were deleted — never on hidden column values. A spy timing
    idle activity learns the insert/delete rate it already observed on
    the bus.

    Installed outputs are reported to the device counters with
    {!Device.note} ([Log_spills] or [Log_merges], [Compaction_pages],
    [Records_installed], [Records_dropped]), feeding the
    [compaction.*] and [run.*] metrics the CI regression gate
    exact-matches. *)

type t

type progress = {
  spills : int;  (** L0 spills installed *)
  merges : int;  (** run merges installed *)
  pages_written : int;  (** run pages of installed outputs *)
  records_dropped : int;  (** tombstoned records folded away *)
}

val create : Catalog.t -> t
(** A compactor over every delta log of the catalog (present and
    future — logs are created lazily on first insert). *)

val step : t -> bool
(** Runs one slice on the first log (by table name) with pending
    compaction: [true] if it worked, [false] when every log is idle.
    Never raises on a quiescent catalog; a log awaiting post-crash
    recovery is skipped until {!Delta_log.recover} runs. Propagates
    [Flash.Power_cut] from a torn run-page program. *)

val run_pending : t -> unit
(** Steps until no log has pending compaction — the eager entry point
    for tests, experiments and {!Ghost_db.compact}. *)

val idle : t -> bool
(** No log has pending compaction: {!step} would do nothing. *)

val progress : t -> progress
