module Relation = Ghost_relation.Relation
module Trace = Ghost_device.Trace
module Public_store = Ghost_public.Public_store

(** Offline reorganization (the secure-setting reload), run as a
    checkpointed shadow build with an atomic commit record.

    A reorganization folds the delta and tombstone logs back into the
    indexed structures: {!snapshot} reads the database's logical
    content, and the loader rebuilds every SKT, column store and
    climbing index from it. Rebuilt in one shot, a power cut in the
    middle would leave neither the old nor the new image trustworthy,
    so the rebuild runs as journaled phases — snapshot (root
    compaction with tombstone filtering), SKT construction, one phase
    per table for the column stores and climbing indexes — on a
    {e shadow} device whose Flash shares the old device's power line,
    so an armed {!Ghost_flash.Flash.arm_power_cut} fires at the n-th
    program across journal and build alike.

    After each phase a CRC-32-stamped checkpoint record is appended to
    a reorg journal on the {e old} device's Flash; a single commit
    record flips the live image. The old image is never modified (the
    journal only appends fresh pages), so recovery can always fall
    back to it: {!Ghost_db.recover} revalidates the journal against
    Flash content and either {e rolls forward} from the last durable
    checkpoint — reusing completed phases, validated by the journal's
    digests — or {e rolls back} to the intact pre-reorg image.

    As with the logs, recovery trusts only what it can read back and
    checksum off the Flash; everything held in RAM is a hint to be
    validated.

    The old device's clock pays the snapshot's reads and the journal's
    programs, and nothing else: the shadow build shares the power line
    but not the clock, and the new device starts from a clean one. *)

val snapshot : Catalog.t -> Public_store.t -> (string * Relation.tuple list) list
(** The database's current logical content — loaded rows, plus the
    insert delta, minus the tombstoned rows — as full rows per table,
    ready for the loader. Hidden columns are read off the device
    (metered on its clock), visible ones come from the public store.
    Root ids are compacted to stay dense (tombstoned gaps close), so
    root keys change across a reorganization; dimension ids are
    stable. Raises [Failure] while a delta or tombstone log needs
    recovery after a power cut, so the rebuilt database reflects
    exactly the acknowledged operations. *)

type progress
(** A reorganization in flight (or interrupted). *)

val create : Catalog.t -> Public_store.t -> progress
(** Plans the rebuild of the given database. Writes nothing: the
    journal's [Begin] record is the first program of {!advance}. *)

val advance : progress -> Catalog.t * Public_store.t * Trace.t
(** Runs every phase still pending, checkpointing each, then appends
    the commit record and assembles the new image. On a fresh
    [progress] this is the whole rebuild; after a crash and
    {!revalidate} it resumes, skipping the phases whose checkpoints
    are durable. Raises {!Ghost_flash.Flash.Power_cut} if an armed
    power cut fires mid-build — the [progress] then holds the
    interrupted state for recovery. *)

val note_crash : progress -> unit
(** Marks the in-flight phase as interrupted (called by
    {!Ghost_db.reorganize} when a power cut escapes {!advance}). *)

val revalidate : progress -> unit
(** The post-crash protocol: re-reads the journal pages off the old
    device's Flash, keeps the longest CRC-valid sequence-continuous
    record prefix, and truncates the in-memory phase outputs to the
    checkpoints that survived — including dropping a snapshot whose
    digest no longer matches its checkpoint record. *)

val can_roll_forward : progress -> bool
(** After {!revalidate}: true when at least the snapshot checkpoint is
    durable (digest-valid), so {!advance} can resume; false when the
    only sound outcome is rolling back to the old image. *)

val abort : progress -> unit
(** Rolls back: appends an [Abort] record superseding the journal. The
    old image was never modified, so nothing else needs undoing; the
    journal pages become garbage reclaimed with the rest of the old
    Flash at the next successful reorganization. *)

val phase_count : progress -> int
val phases_reused : progress -> int
(** Phases whose checkpoints let a resumed {!advance} skip them. *)

val phases_redone : progress -> int
(** Phases re-executed on resume because their checkpoint (or their
    own build) was torn. *)

val journal_pages : progress -> int
(** Journal records durably on Flash (after {!revalidate}: the
    validated prefix). *)
