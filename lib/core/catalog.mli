module Schema = Ghost_relation.Schema
module Device = Ghost_device.Device
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Climbing_index = Ghost_store.Climbing_index

(** The hidden database as it lives on the device: column stores for
    hidden columns, SKTs for every non-leaf table, climbing indexes on
    hidden attributes, dense key (climbing) indexes for every non-root
    table, and the statistics metadata the optimizer uses. *)

type table_entry = {
  table : Schema.table;
  count : int;
  hidden_columns : (string * Column_store.t) list;
      (** hidden attribute and hidden foreign-key columns *)
  key_index : Climbing_index.t option;
      (** dense index climbing this table's ids to every ancestor;
          [None] for the schema root *)
  attr_indexes : (string * Climbing_index.t) list;
      (** sorted climbing indexes on hidden non-FK columns *)
  stats : (string * Col_stats.t) list;  (** every column, key included *)
}

type t = {
  schema : Schema.t;
  device : Device.t;
  entries : (string * table_entry) list;
  skts : (string * Skt.t) list;  (** per table with children *)
  deltas : (string, Delta_log.t) Hashtbl.t;
      (** append-only insert logs (root table only), created lazily *)
  tombstones : (string, Tombstone_log.t) Hashtbl.t;
      (** append-only deletion logs (root table only), created lazily *)
}

val entry : t -> string -> table_entry
(** Raises [Not_found]. *)

val table_count : t -> string -> int
val skt : t -> string -> Skt.t option
val attr_index : t -> table:string -> column:string -> Climbing_index.t option
val key_index : t -> string -> Climbing_index.t option
val column_store : t -> table:string -> column:string -> Column_store.t option
val column_stats : t -> table:string -> column:string -> Col_stats.t
(** Raises [Not_found]. *)

val delta : t -> string -> Delta_log.t option
(** The insert log of a table, if any inserts happened. *)

val delta_count : t -> string -> int
val total_count : t -> string -> int
(** Loaded rows + inserted rows (deleted rows are still counted: ids
    are never reused before reorganization). *)

val tombstone : t -> string -> Tombstone_log.t option
val tombstone_count : t -> string -> int
val live_count : t -> string -> int
(** [total_count - tombstone_count]. *)

(** {2 Storage accounting (experiment E9)} *)

type storage_report = {
  base_bytes : int;  (** hidden column stores *)
  skt_bytes : int;
  attr_index_bytes : int;
  key_index_bytes : int;
}

val storage : t -> storage_report
val pp_storage : Format.formatter -> storage_report -> unit

val page_intact : t -> page:int -> bool
(** Whether a fresh read of [page] (metered, straight from the cells,
    past the page cache) passes the checks a verified read makes of
    it — how {!Exec} classifies a caught {!Ghost_flash.Flash.Integrity_error}
    as transient or persistent. A live page of a delta log (L0, or
    either stream of a run) or of a tombstone log is checked against
    its own seal; any other page against the structure-page trailer
    ({!Ghost_flash.Flash.page_intact}). Requires an authenticated
    device. *)

val structure_pages : t -> int list
(** Every Flash page holding a query-time structure (SKT rows, hidden
    column stores, climbing indexes), sorted and deduplicated — the
    canonical walk list for the background scrubber and the fleet's
    anti-entropy digests. The delta / tombstone logs are excluded:
    their durable format carries its own record CRCs. *)
