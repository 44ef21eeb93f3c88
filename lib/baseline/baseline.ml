module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Cursor = Ghost_kernel.Cursor
module Sorted_ids = Ghost_kernel.Sorted_ids
module Resources = Ghost_kernel.Resources
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Predicate = Ghost_relation.Predicate
module Bind = Ghost_sql.Bind
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Trace = Ghost_device.Trace
module Device = Ghost_device.Device
module Pager = Ghost_store.Pager
module Column_store = Ghost_store.Column_store
module Ext_sort = Ghost_store.Ext_sort
module Public_store = Ghost_public.Public_store
module Catalog = Ghostdb.Catalog

type algorithm =
  | Grace_hash
  | Sort_merge

let algorithm_name = function
  | Grace_hash -> "grace-hash-join"
  | Sort_merge -> "sort-merge (join index)"

type result = {
  rows : Value.t array list;
  row_count : int;
  elapsed_us : float;
  usage : Device.usage;
  ram_peak : int;
}

exception Baseline_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Baseline_error s)) fmt

type ctx = {
  algo : algorithm;
  cat : Catalog.t;
  public : Public_store.t;
  device : Device.t;
  ram : Ram.t;
  resources : Resources.t;
  q : Bind.query;
}

let cpu ctx n = Device.cpu ctx.device n

let hidden_column ctx ~table ~column =
  match Catalog.column_store ctx.cat ~table ~column with
  | Some cs -> cs
  | None -> fail "baseline: no column store for hidden %s.%s" table column

let is_hidden_col ctx ~table ~column =
  let tbl = Schema.find_table ctx.cat.Catalog.schema table in
  Column.is_hidden (Schema.find_column tbl column)

(* Sorted id list satisfying all predicates on [table]: hidden ones by
   full column scans (no indexes for the baselines), visible ones
   shipped from the public store. Returns None when no predicates. *)
let filter_ids ctx table =
  let preds =
    List.filter (fun (p : Predicate.t) -> p.Predicate.table = table) ctx.q.Bind.selections
  in
  if preds = [] then None
  else begin
    let lists =
      List.map
        (fun (p : Predicate.t) ->
           if is_hidden_col ctx ~table ~column:p.Predicate.column then begin
             let cs = hidden_column ctx ~table ~column:p.Predicate.column in
             let reader = Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:2048 cs in
             let ids = Cursor.to_array (Column_store.matching_ids reader p.Predicate.cmp) in
             Column_store.close_reader reader;
             cpu ctx (Column_store.count cs);
             ids
           end
           else begin
             let ids = Public_store.select_ids ctx.public ~trace:(Device.trace ctx.device) p in
             Device.receive_id_list ctx.device ~table ids;
             ids
           end)
        preds
    in
    Some (Sorted_ids.intersect_many lists)
  end

(* ---- record handling ---- *)

(* A record is one id per bound table (slot). *)
type records = {
  slots : string list;
  data : int array list;
}

let slot_index records table =
  let rec loop i = function
    | [] -> fail "baseline: table %s not bound" table
    | t :: rest -> if t = table then i else loop (i + 1) rest
  in
  loop 0 records.slots

let record_bytes records = 4 * List.length records.slots

let encode_record width row =
  let b = Bytes.create width in
  Array.iteri (fun i id -> Codec.put_u32 b (4 * i) id) row;
  b

let decode_record slots b =
  Array.init slots (fun i -> Codec.get_u32 b (4 * i))

(* External sort of the records on one slot. *)
let sort_records ctx records ~slot =
  let width = record_bytes records in
  let n_slots = List.length records.slots in
  let input =
    Cursor.map (encode_record width) (Cursor.of_list records.data)
  in
  let sorted =
    Ext_sort.sort ~ram:ctx.ram ~scratch:(Device.scratch ctx.device)
      ~resources:ctx.resources ~cpu:(cpu ctx) ~record_bytes:width
      ~compare:(fun a b -> Int.compare (Codec.get_u32 a (4 * slot)) (Codec.get_u32 b (4 * slot)))
      input
  in
  { records with data = List.map (decode_record n_slots) (Cursor.to_list sorted) }

(* ---- grace-hash machinery ---- *)

(* Partition pairs of (key, payload-bytes) into [k] scratch partitions;
   returns per-partition segments. *)
let partition_to_scratch ctx ~k ~part ~payload_bytes pairs =
  let scratch = Device.scratch ctx.device in
  let page = (Flash.geometry scratch).Flash.page_size in
  Ram.with_alloc ctx.ram ~label:"grace-partition-buffers" (k * page) (fun _ ->
    let writers = Array.init k (fun _ -> Pager.Writer.create scratch) in
    let cell = Bytes.create (4 + payload_bytes) in
    List.iter
      (fun (key, payload) ->
         let p = part key in
         Codec.put_u32 cell 0 key;
         Bytes.blit payload 0 cell 4 payload_bytes;
         Pager.Writer.append_bytes writers.(p) cell;
         cpu ctx 2)
      pairs;
    Array.map Pager.Writer.finish writers)

let read_partition ctx ~payload_bytes segment =
  let scratch = Device.scratch ctx.device in
  Pager.with_reader ~ram:ctx.ram scratch segment (fun r ->
    let entry = 4 + payload_bytes in
    let n = Pager.segment_bytes segment / entry in
    List.init n (fun i ->
      let b = Pager.Reader.read r ~off:(i * entry) ~len:entry in
      (Codec.get_u32 b 0, Bytes.sub b 4 payload_bytes)))

(* Keep only records whose id at [slot] is in [filter] (sorted).
   RAM hash when the filter fits, grace partitioning otherwise. *)
(* Radix partitioning: level [depth] splits on bits [3*depth ..
   3*depth+2], so recursion always makes progress. *)
let rec grace_semijoin ctx ?(depth = 0) records ~slot filter =
  let free = Ram.budget ctx.ram - Ram.in_use ctx.ram in
  let hash_bytes = 8 * Array.length filter in
  if hash_bytes <= free / 2 then
    Ram.with_alloc ctx.ram ~label:"grace-filter-hash" (max 16 hash_bytes) (fun _ ->
      let member = Hashtbl.create (max 16 (Array.length filter)) in
      Array.iter (fun id -> Hashtbl.replace member id ()) filter;
      cpu ctx (Array.length filter + List.length records.data);
      { records with
        data = List.filter (fun row -> Hashtbl.mem member row.(slot)) records.data })
  else begin
    let k = 8 in
    let part id = (id lsr (3 * depth)) land (k - 1) in
    let width = record_bytes records in
    let rec_parts =
      partition_to_scratch ctx ~k ~part ~payload_bytes:width
        (List.map (fun row -> (row.(slot), encode_record width row)) records.data)
    in
    let out = ref [] in
    Array.iteri
      (fun p seg ->
         let part_filter =
           Array.of_list (List.filter (fun id -> part id = p) (Array.to_list filter))
         in
         let part_rows = read_partition ctx ~payload_bytes:width seg in
         let sub =
           grace_semijoin ctx ~depth:(depth + 1)
             { records with
               data =
                 List.map
                   (fun (_, b) -> decode_record (List.length records.slots) b)
                   part_rows }
             ~slot part_filter
         in
         out := sub.data @ !out)
      rec_parts;
    (* scratch partitions are reclaimed wholesale at end of query *)
    { records with data = !out }
  end

(* ---- attach one edge (P, C): extend records with the C id ---- *)

let attach_edge ctx records ~parent ~child =
  let fk_col =
    match List.assoc_opt child (Schema.children ctx.cat.Catalog.schema parent) with
    | Some fk -> fk
    | None -> fail "baseline: %s -> %s is not a schema edge" parent child
  in
  let p_slot = slot_index records parent in
  let extended_slots = records.slots @ [ child ] in
  let extend row c_id = Array.append row [| c_id |] in
  let hidden = is_hidden_col ctx ~table:parent ~column:fk_col in
  let data =
    if hidden then begin
      let cs = hidden_column ctx ~table:parent ~column:fk_col in
      match ctx.algo with
      | Grace_hash ->
        (* one point read per record *)
        let reader = Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:64 cs in
        let out =
          List.map
            (fun row ->
               match Column_store.get reader row.(p_slot) with
               | Value.Int c_id -> extend row c_id
               | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
                 fail "baseline: non-integer fk")
            records.data
        in
        Column_store.close_reader reader;
        cpu ctx (2 * List.length records.data);
        out
      | Sort_merge ->
        (* sort records on P, merge with the sequential fk scan *)
        let sorted = sort_records ctx records ~slot:p_slot in
        let reader = Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:2048 cs in
        let scan = Column_store.scan reader in
        let joined =
          Cursor.merge_join
            ~left_key:(fun row -> row.(p_slot))
            ~right_key:fst
            (Cursor.of_list sorted.data) scan
          |> Cursor.to_list
        in
        Column_store.close_reader reader;
        cpu ctx (Column_store.count cs);
        List.map
          (fun (row, (_, v)) ->
             match v with
             | Value.Int c_id -> extend row c_id
             | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
               fail "baseline: non-integer fk")
          joined
    end
    else begin
      (* Visible fk: the whole column is shipped in (sorted by id) and
         merge-joined after sorting the records. *)
      let stream =
        Public_store.stream_column ctx.public ~trace:(Device.trace ctx.device)
          ~table:parent ~column:fk_col ~preds:[]
      in
      (* Legacy ad-hoc sizing (4-byte id + 4-byte fk per pair) kept for
         seed bit-identity: the typed value-stream framing would charge
         the full 8-byte integer width. *)
      Device.receive ctx.device
        (Trace.Value_stream { table = parent; column = fk_col; count = Array.length stream })
        ~bytes:(8 * Array.length stream);
      let sorted =
        match ctx.algo with
        | Sort_merge -> sort_records ctx records ~slot:p_slot
        | Grace_hash -> sort_records ctx records ~slot:p_slot
      in
      Cursor.merge_join
        ~left_key:(fun row -> row.(p_slot))
        ~right_key:fst
        (Cursor.of_list sorted.data) (Cursor.of_array stream)
      |> Cursor.to_list
      |> List.map (fun (row, (_, v)) ->
        match v with
        | Value.Int c_id -> extend row c_id
        | Value.Null | Value.Float _ | Value.Date _ | Value.Str _ ->
          fail "baseline: non-integer fk")
    end
  in
  { slots = extended_slots; data }

let apply_filter ctx records ~table filter =
  let slot = slot_index records table in
  match ctx.algo with
  | Grace_hash -> grace_semijoin ctx records ~slot filter
  | Sort_merge ->
    let sorted = sort_records ctx records ~slot in
    let kept =
      Cursor.merge_join
        ~left_key:(fun row -> row.(slot))
        ~right_key:Fun.id
        (Cursor.of_list sorted.data) (Cursor.of_array filter)
      |> Cursor.to_list
      |> List.map fst
    in
    cpu ctx (List.length sorted.data);
    { records with data = kept }

(* ---- projection ---- *)

let project ctx records =
  let schema = ctx.cat.Catalog.schema in
  (* per projected column, an (id -> value) accessor *)
  let accessors =
    List.map
      (fun (table, column) ->
         let tbl = Schema.find_table schema table in
         let slot = slot_index records table in
         if column = tbl.Schema.key then (slot, fun id -> Value.Int id)
         else if is_hidden_col ctx ~table ~column then begin
           let cs = hidden_column ctx ~table ~column in
           let reader = Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:64 cs in
           Resources.defer ctx.resources (fun () -> Column_store.close_reader reader);
           (slot, fun id -> Column_store.get reader id)
         end
         else begin
           (* visible: the filtered stream is shipped once; only the ids
              the surviving records actually need are retained, so the
              RAM charge is proportional to the (post-filter) record
              count, not the stream. *)
           let preds =
             List.filter
               (fun (p : Predicate.t) ->
                  p.Predicate.table = table
                  && not (is_hidden_col ctx ~table ~column:p.Predicate.column))
               ctx.q.Bind.selections
           in
           let stream =
             Public_store.stream_column ctx.public ~trace:(Device.trace ctx.device)
               ~table ~column ~preds
           in
           let ty = (Schema.find_column tbl column).Column.ty in
           let width = Value.ty_width ty in
           Device.receive_value_stream ctx.device ~table ~column ~ty stream;
           let needed = Hashtbl.create (max 16 (List.length records.data)) in
           List.iter (fun row -> Hashtbl.replace needed row.(slot) ()) records.data;
           let cell =
             Ram.alloc ctx.ram ~label:"baseline-proj-hash"
               (max 16 (Hashtbl.length needed * (16 + width)))
           in
           Resources.defer ctx.resources (fun () -> Ram.free ctx.ram cell);
           let h = Hashtbl.create (max 16 (Hashtbl.length needed)) in
           Array.iter
             (fun (id, v) ->
                cpu ctx 1;
                if Hashtbl.mem needed id then Hashtbl.replace h id v)
             stream;
           ( slot,
             fun id ->
               match Hashtbl.find_opt h id with
               | Some v -> v
               | None -> fail "baseline: projection stream missing id %d" id )
         end)
      ctx.q.Bind.projections
  in
  List.map
    (fun row ->
       cpu ctx (2 * List.length accessors);
       Array.of_list (List.map (fun (slot, get) -> get row.(slot)) accessors))
    records.data

(* ---- driver ---- *)

let order_edges root edges =
  let rec loop bound remaining =
    match remaining with
    | [] -> []
    | _ ->
      let ready, later = List.partition (fun (p, _) -> List.mem p bound) remaining in
      if ready = [] then fail "baseline: disconnected join edges";
      ready @ loop (bound @ List.map snd ready) later
  in
  loop [ root ] edges

let run algo cat public (q : Bind.query) =
  let device = cat.Catalog.device in
  let ram = Device.ram device in
  Resources.with_resources (fun resources ->
    let ctx = { algo; cat; public; device; ram; resources; q } in
    let scope = Ram.open_scope ram in
    let before = Device.snapshot device in
    Device.receive_query device q.Bind.text;
    let root = Schema.subtree_root cat.Catalog.schema q.Bind.tables in
    if Catalog.delta_count cat root > 0 || Catalog.tombstone_count cat root > 0 then
      fail
        "baseline: %s has pending inserts or deletes; baselines run only on \
         reorganized data"
        root;
    let n_root = Catalog.table_count cat root in
    let root_records =
      match filter_ids ctx root with
      | Some ids -> { slots = [ root ]; data = List.map (fun id -> [| id |]) (Array.to_list ids) }
      | None -> { slots = [ root ]; data = List.init n_root (fun i -> [| i + 1 |]) }
    in
    let records =
      List.fold_left
        (fun records (parent, child) ->
           let records = attach_edge ctx records ~parent ~child in
           match filter_ids ctx child with
           | Some filter -> apply_filter ctx records ~table:child filter
           | None -> records)
        root_records
        (order_edges root q.Bind.join_edges)
    in
    let rows = project ctx records in
    let rows =
      match q.Bind.aggregate with
      | None -> rows
      | Some spec ->
        cpu ctx (5 * List.length rows);
        Ghost_sql.Aggregate.apply spec rows
    in
    let rows =
      Ghost_sql.Postproc.apply ~order_by:q.Bind.order_by ~limit:q.Bind.limit rows
    in
    Device.emit_rows device ~tys:(Bind.output_types cat.Catalog.schema q) rows;
    Flash.erase_live_blocks (Device.scratch device);
    Resources.release resources;
    let usage = Device.usage_between device ~before ~after:(Device.snapshot device) in
    {
      rows;
      row_count = List.length rows;
      elapsed_us = usage.Device.total_us;
      usage;
      ram_peak = Ram.close_scope ram scope;
    })
