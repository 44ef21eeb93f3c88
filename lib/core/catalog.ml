module Schema = Ghost_relation.Schema
module Device = Ghost_device.Device
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Climbing_index = Ghost_store.Climbing_index
module Flash = Ghost_flash.Flash

type table_entry = {
  table : Schema.table;
  count : int;
  hidden_columns : (string * Column_store.t) list;
  key_index : Climbing_index.t option;
  attr_indexes : (string * Climbing_index.t) list;
  stats : (string * Col_stats.t) list;
}

type t = {
  schema : Schema.t;
  device : Device.t;
  entries : (string * table_entry) list;
  skts : (string * Skt.t) list;
  deltas : (string, Delta_log.t) Hashtbl.t;
  tombstones : (string, Tombstone_log.t) Hashtbl.t;
}

let entry t name = List.assoc name t.entries
let table_count t name = (entry t name).count
let skt t name = List.assoc_opt name t.skts

let attr_index t ~table ~column =
  List.assoc_opt column (entry t table).attr_indexes

let key_index t name = (entry t name).key_index

let column_store t ~table ~column =
  List.assoc_opt column (entry t table).hidden_columns

let column_stats t ~table ~column = List.assoc column (entry t table).stats

let delta t name = Hashtbl.find_opt t.deltas name

let delta_count t name =
  match delta t name with
  | Some log -> Delta_log.count log
  | None -> 0

let total_count t name = table_count t name + delta_count t name

let tombstone t name = Hashtbl.find_opt t.tombstones name

let tombstone_count t name =
  match tombstone t name with
  | Some log -> Tombstone_log.count log
  | None -> 0

let live_count t name = total_count t name - tombstone_count t name

type storage_report = {
  base_bytes : int;
  skt_bytes : int;
  attr_index_bytes : int;
  key_index_bytes : int;
}

let storage t =
  let sum f l = List.fold_left (fun acc x -> acc + f x) 0 l in
  {
    base_bytes =
      sum
        (fun (_, e) -> sum (fun (_, cs) -> Column_store.size_bytes cs) e.hidden_columns)
        t.entries;
    skt_bytes = sum (fun (_, s) -> Skt.size_bytes s) t.skts;
    attr_index_bytes =
      sum
        (fun (_, e) -> sum (fun (_, i) -> Climbing_index.size_bytes i) e.attr_indexes)
        t.entries;
    key_index_bytes =
      sum
        (fun (_, e) ->
           match e.key_index with
           | Some i -> Climbing_index.size_bytes i
           | None -> 0)
        t.entries;
  }

(* Every Flash page holding a query-time structure: SKT rows, hidden
   column stores, and climbing indexes (key + attribute). The delta /
   tombstone logs are excluded — they carry their own record CRCs in
   the durable format and are rewritten, not scrubbed, on
   reorganization. Sorted and deduplicated: the scrubber's and
   anti-entropy's canonical walk order. *)
let structure_pages t =
  let acc = List.concat_map (fun (_, s) -> Skt.pages s) t.skts in
  let acc =
    List.fold_left
      (fun acc (_, e) ->
         let acc =
           List.fold_left (fun acc (_, cs) -> Column_store.pages cs @ acc)
             acc e.hidden_columns
         in
         let acc =
           match e.key_index with
           | Some i -> Climbing_index.pages i @ acc
           | None -> acc
         in
         List.fold_left (fun acc (_, i) -> Climbing_index.pages i @ acc)
           acc e.attr_indexes)
      acc t.entries
  in
  List.sort_uniq compare acc

let page_intact t ~page =
  let find logs intact = Seq.find_map (fun log -> intact log ~page) (Hashtbl.to_seq_values logs) in
  match find t.deltas Delta_log.page_intact with
  | Some ok -> ok
  | None ->
    (match find t.tombstones Tombstone_log.page_intact with
     | Some ok -> ok
     | None -> Flash.page_intact (Device.flash t.device) ~page)

let retry_transient t f =
  try f () with
  | Flash.Integrity_error { page; _ } as e ->
    Option.iter
      (fun c -> Ghost_device.Page_cache.invalidate c ~page)
      (Device.page_cache t.device);
    let transient = page_intact t ~page in
    Device.note t.device Device.Integrity_errors;
    if not transient then raise e;
    Device.note t.device Device.Integrity_transients;
    f ()

let pp_storage fmt r =
  Format.fprintf fmt
    "hidden base data %d B; SKTs %d B; climbing indexes %d B; key indexes %d B (total %d B)"
    r.base_bytes r.skt_bytes r.attr_index_bytes r.key_index_bytes
    (r.base_bytes + r.skt_bytes + r.attr_index_bytes + r.key_index_bytes)
