module Relation = Ghost_relation.Relation
module Public_store = Ghost_public.Public_store

(** Inserts after the initial load.

    Only the schema root (the fact table) accepts inserts: a new fact
    references {e existing} dimension rows through its foreign keys.
    The visible part of each tuple goes to the public store; the hidden
    part, plus the tuple's precomputed SKT-style id vector (obtained by
    reading the dimension SKTs on the device), is appended to the
    table's {!Delta_log}. Indexes and SKTs are not rewritten — NAND
    forbids it — so queries scan the log next to the main structures
    until an offline reorganization (= reload) folds it in. *)

exception Insert_error of string

val insert_root :
  Catalog.t -> Public_store.t -> Relation.tuple list -> unit
(** Appends full tuples to the schema root. Keys must densely continue
    the existing ids; foreign keys must reference loaded dimension
    rows. Raises {!Insert_error} on any violation (nothing is applied
    from a failing batch). The batch is one delta-log append, one Flash
    program per log page it touches; if a power cut tears one,
    [Flash.Power_cut] propagates after the rows of the completed
    programs — exactly the rows the log acknowledged — were added to
    the public store. *)

val delete_root : Catalog.t -> Public_store.t -> int list -> unit
(** Tombstones root tuples by id: the ids are appended to the deletion
    log as one batch and the visible rows leave the public store.
    Raises {!Insert_error} on unknown, duplicate, or already-deleted
    ids (nothing is applied from a failing batch). On a power cut, as
    for {!insert_root}, only the acknowledged ids leave the public
    store. *)
