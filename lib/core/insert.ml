module Value = Ghost_kernel.Value
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Device = Ghost_device.Device
module Flash = Ghost_flash.Flash
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Public_store = Ghost_public.Public_store

exception Insert_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Insert_error s)) fmt

(* Logs are created on first use; the device config decides whether
   they use the crash-safe checksummed page format. *)
let log_durability cat : Ghost_store.Append_log.durability =
  if (Device.config cat.Catalog.device).Device.durable_logs then Checksummed
  else Plain

let log_runs cat =
  match (Device.config cat.Catalog.device).Device.log_runs with
  | None -> None
  | Some p ->
    Some
      {
        Delta_log.l0_spill_pages = p.Device.l0_spill_pages;
        run_fanout = p.Device.run_fanout;
      }

let delta_log_for cat root =
  match Catalog.delta cat root with
  | Some log -> log
  | None ->
    let entry = Catalog.entry cat root in
    let hidden_cols =
      List.map (fun (name, cs) -> (name, Column_store.ty cs)) entry.Catalog.hidden_columns
    in
    let levels = Schema.subtree cat.Catalog.schema root in
    let log =
      Delta_log.create ~durability:(log_durability cat)
        ?cache:(Device.page_cache cat.Catalog.device)
        ?runs:(log_runs cat)
        (Device.flash cat.Catalog.device)
        ~table:root ~levels ~hidden_cols
    in
    Hashtbl.replace cat.Catalog.deltas root log;
    log

(* The SKT-style id vector of a new root tuple: its own id followed by,
   per child subtree, the ids read from the child's SKT (or the child id
   itself for leaves). *)
let id_vector cat root ~new_id row =
  let schema = cat.Catalog.schema in
  let tbl = Schema.find_table schema root in
  let child_ids =
    List.concat_map
      (fun (child, fk_col) ->
         let fk_idx = Schema.column_index tbl fk_col in
         let c_id =
           match row.(fk_idx) with
           | Value.Int id -> id
           | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
             fail "insert into %s: foreign key %s is not an integer" root fk_col
         in
         let n_child = Catalog.table_count cat child in
         if c_id < 1 || c_id > n_child then
           fail "insert into %s: %s = %d does not reference a loaded %s row" root
             fk_col c_id child;
         match Catalog.skt cat child with
         | None -> [ c_id ]
         | Some skt ->
           let reader = Skt.open_reader skt in
           let ids = Skt.get reader c_id in
           Skt.close_reader reader;
           Array.to_list ids)
      (Schema.children schema root)
  in
  Array.of_list (new_id :: child_ids)

let delete_root cat public ids =
  let schema = cat.Catalog.schema in
  let root = (Schema.root schema).Schema.name in
  let total = Catalog.total_count cat root in
  let log =
    match Catalog.tombstone cat root with
    | Some log -> log
    | None ->
      let log =
        Tombstone_log.create ~durability:(log_durability cat)
          ?cache:(Device.page_cache cat.Catalog.device)
          (Device.flash cat.Catalog.device) ~table:root
      in
      Hashtbl.replace cat.Catalog.tombstones root log;
      log
  in
  let seen = Hashtbl.create (List.length ids) in
  List.iter
    (fun id ->
       if id < 1 || id > total then fail "delete from %s: no row %d" root id;
       if Tombstone_log.mem log id then fail "delete from %s: row %d already deleted" root id;
       if Hashtbl.mem seen id then fail "delete from %s: duplicate id %d in batch" root id;
       Hashtbl.add seen id ())
    ids;
  (* A power cut can tear the batch: ids already durable on the device
     must also leave the public store, or the two sides disagree after
     recovery. The torn id itself is dropped by {!Tombstone_log.recover}. *)
  let applied = ref 0 in
  (try List.iter (fun id -> Tombstone_log.append log [ id ]; incr applied) ids
   with Flash.Power_cut _ as e ->
     Public_store.delete_rows public root (List.filteri (fun i _ -> i < !applied) ids);
     raise e);
  Public_store.delete_rows public root ids

let insert_root cat public rows =
  let schema = cat.Catalog.schema in
  let root = (Schema.root schema).Schema.name in
  let tbl = Schema.find_table schema root in
  let arity = Schema.arity tbl in
  let cols = Schema.all_columns tbl in
  let entry = Catalog.entry cat root in
  (* Validate the whole batch before touching any state. *)
  let next = ref (Catalog.total_count cat root + 1) in
  let prepared =
    List.map
      (fun row ->
         if Array.length row <> arity then
           fail "insert into %s: arity %d, expected %d" root (Array.length row) arity;
         List.iteri
           (fun i (c : Column.t) ->
              if not (Value.has_ty c.Column.ty row.(i)) then
                fail "insert into %s: column %s type mismatch" root c.Column.name;
              if Value.is_null row.(i) then
                fail "insert into %s: NULL in column %s" root c.Column.name)
           cols;
         let new_id =
           match row.(0) with
           | Value.Int id -> id
           | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
             fail "insert into %s: non-integer key" root
         in
         if new_id <> !next then
           fail "insert into %s: key %d must densely continue (expected %d)" root
             new_id !next;
         incr next;
         let ids = id_vector cat root ~new_id row in
         let hidden =
           Array.of_list
             (List.map
                (fun (name, _) -> row.(Schema.column_index tbl name))
                entry.Catalog.hidden_columns)
         in
         (row, ids, hidden))
      rows
  in
  let log = delta_log_for cat root in
  (* Each append that returns is acknowledged and durable (the torn
     record of a power cut is not: recovery drops it). If the batch is
     interrupted, mirror the acknowledged prefix on the public side so
     both stores agree after {!Delta_log.recover}. *)
  let applied = ref 0 in
  (try
     List.iter
       (fun (_, ids, hidden) -> Delta_log.append log ~ids ~hidden; incr applied)
       prepared
   with Flash.Power_cut _ as e ->
     Public_store.append_rows public root
       (List.filteri (fun i _ -> i < !applied) prepared
        |> List.map (fun (r, _, _) -> r));
     raise e);
  (try Public_store.append_rows public root (List.map (fun (r, _, _) -> r) prepared)
   with Invalid_argument msg -> fail "insert into %s: %s" root msg)
