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
module Page_cache = Ghost_device.Page_cache
module Bloom = Ghost_bloom.Bloom
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Climbing_index = Ghost_store.Climbing_index
module Merge_union = Ghost_store.Merge_union
module Ext_sort = Ghost_store.Ext_sort
module Public_store = Ghost_public.Public_store
module Metrics = Ghost_metrics.Metrics
module Oblivious = Ghost_oblivious.Oblivious

type op_stats = {
  op_label : string;
  tuples_in : int;
  tuples_out : int;
  ram_peak : int;
  usage : Device.usage;
}

type result = {
  rows : Value.t array list;
  row_count : int;
  ops : op_stats list;
  total : Device.usage;
  elapsed_us : float;
  ram_peak : int;
  bloom_fp_candidates : int;
  oblivious : Oblivious.mode;
  padding_bytes : int;
}

exception Exec_error of string

let fail fmt = Printf.ksprintf (fun s -> raise (Exec_error s)) fmt

(* A candidate row mid-flight: the SKT id vector plus visible values
   attached by the projection joins so far (reverse order). Rows coming
   from the insert delta log carry their own hidden values (they are
   not in the column stores). [live] is false only under [Full], for a
   row that failed a test but still travels the whole pipeline. *)
type row = {
  ids : int array;
  mutable attached : Value.t list;
  delta_hidden : (string * Value.t) list option;
  live : bool;
}

type context = {
  catalog : Catalog.t;
  public : Public_store.t;
  plan : Plan.t;
  device : Device.t;
  ram : Ram.t;
  scratch : Flash.t;  (* spill region: shared (serial) or per-session *)
  cache : Page_cache.t option;  (* shared buffer manager, when configured *)
  resources : Resources.t;
  mutable ops_rev : op_stats list;
  bloom_fpr : float;
  mutable bloom_fps : int;
  mutable shipped : (string * int array) list;
      (* shipped visible id lists, kept for membership tests *)
  mutable pad_bytes : int;
      (* dummy-padding bytes shipped or emitted so far (Pad / Full) *)
}

(* Operator class: the label prefix before the table/column argument —
   "Project+Join(T.c)" profiles as "Project+Join". *)
let op_class label =
  match String.index_opt label '(' with
  | Some i -> String.sub label 0 i
  | None -> label

let measure ctx label ~tuples_in f =
  let scope = Ram.open_scope ctx.ram in
  let before = Device.snapshot ctx.device in
  let m = Device.metrics ctx.device in
  (* Operator profiles are stamped on the session's virtual clock, so a
     preempted operator is not charged for the slices other sessions
     ran in the middle of it. *)
  let vstart =
    match m with None -> 0. | Some _ -> Device.session_us ctx.device
  in
  let value, tuples_out = f () in
  let usage =
    Device.usage_between ctx.device ~before ~after:(Device.snapshot ctx.device)
  in
  let ram_peak = Ram.close_scope ctx.ram scope in
  ctx.ops_rev <- { op_label = label; tuples_in; tuples_out; ram_peak; usage } :: ctx.ops_rev;
  (match m with
   | None -> ()
   | Some reg ->
     let dur = Device.session_us ctx.device -. vstart in
     let cls = op_class label in
     Metrics.incr reg ("exec.op." ^ cls ^ ".count");
     Metrics.observe reg ("exec.op." ^ cls ^ ".us") dur;
     let tid =
       match Trace.current_session (Device.trace ctx.device) with
       | Some s -> s
       | None -> 0
     in
     Metrics.span reg ~name:label ~cat:"exec" ~pid:2 ~tid
       ~args:
         [
           ("tuples_in", Float.of_int tuples_in);
           ("tuples_out", Float.of_int tuples_out);
           ("ram_peak", Float.of_int ram_peak);
           ("flash_reads", Float.of_int usage.Device.flash_page_reads);
           ("flash_programs", Float.of_int usage.Device.flash_page_programs);
           ("usb_bytes_in", Float.of_int usage.Device.used_usb_bytes_in);
           ("cache_hits", Float.of_int usage.Device.cache.Page_cache.hits);
           ("cache_misses", Float.of_int usage.Device.cache.Page_cache.misses);
         ]
       ~ts:vstart ~dur ());
  value

let cpu ctx n = Device.cpu ctx.device n

(* ---- helpers over the catalog ---- *)

let attr_index_exn ctx ~table ~column =
  match Catalog.attr_index ctx.catalog ~table ~column with
  | Some idx -> idx
  | None -> fail "no climbing index on %s.%s (H_index strategy invalid)" table column

let key_index_exn ctx table =
  match Catalog.key_index ctx.catalog table with
  | Some idx -> idx
  | None -> fail "no key climbing index for %s" table

let column_store_exn ctx ~table ~column =
  match Catalog.column_store ctx.catalog ~table ~column with
  | Some cs -> cs
  | None -> fail "no device column store for %s.%s" table column

(* A buffered reader on a device column store, closed when the plan's
   resources are released (or earlier: closing is idempotent). A paged
   reader buffers a whole page, for reads in id order. *)
let open_column ?(paged = false) ctx ~table ~column =
  let cs = column_store_exn ctx ~table ~column in
  let r =
    if paged then Column_store.open_reader ~ram:ctx.ram ~paged ?cache:ctx.cache cs
    else Column_store.open_reader ~ram:ctx.ram ~buffer_bytes:256 ?cache:ctx.cache cs
  in
  Resources.defer ctx.resources (fun () -> Column_store.close_reader r);
  r

let page_size ctx = (Device.config ctx.device).Device.flash_geometry.Flash.page_size

(* ---- predicate bitmaps ----

   A hidden predicate on a table T below the root selects a set of T's
   ids; a bitmap over 1..n_T tests it with one bit at the row's level-T
   id. {!Plan.delta_bitmap} names the fill. [Index_lists] streams the
   climbing index's lists at T's own level one at a time — they are
   disjoint, so there is no merge and no spill — at one CPU op per id.
   [Column_scan] reads the column once in id order through a paged
   reader and charges 2 ops per value whatever it holds, so its clock
   and its page reads are the same for any data. The bitmap is charged
   to the arena until its cell is freed, at the latest with the plan;
   [None] when it and the fill's readers do not fit, and the caller
   reads the column per row instead. *)
let pred_bitmap ctx fill ~table (pred : Predicate.t) =
  let n = Catalog.table_count ctx.catalog table in
  let bytes = (n + 7) / 8 in
  let readers =
    match fill with
    | Plan.Index_lists -> 2 * 256
    | Plan.Column_scan -> page_size ctx
  in
  if not (Ram.would_fit ctx.ram (bytes + readers)) then None
  else begin
    let column = pred.Predicate.column in
    let cell =
      Ram.alloc ctx.ram ~label:(Printf.sprintf "bitmap(%s.%s)" table column) (max 1 bytes)
    in
    Resources.defer ctx.resources (fun () -> Ram.free ctx.ram cell);
    let bits = Bytes.make bytes '\000' in
    let set id =
      let i = id - 1 in
      Bytes.set_uint8 bits (i lsr 3) (Bytes.get_uint8 bits (i lsr 3) lor (1 lsl (i land 7)))
    in
    (match fill with
     | Plan.Index_lists ->
       List.iter
         (fun (source : Merge_union.source) ->
            let ids, close = source () in
            Fun.protect ~finally:close (fun () ->
              Cursor.iter
                (fun id ->
                   cpu ctx 1;
                   set id)
                ids))
         (Climbing_index.lookup_cmp ~ram:ctx.ram ?cache:ctx.cache
            (attr_index_exn ctx ~table ~column) pred.Predicate.cmp ~level:table)
     | Plan.Column_scan ->
       let r = open_column ~paged:true ctx ~table ~column in
       for id = 1 to n do
         cpu ctx 2;
         if Predicate.holds pred (Column_store.get r id) then set id
       done;
       Column_store.close_reader r);
    Some
      ( (fun id ->
          let i = id - 1 in
          i >= 0 && i < n && Bytes.get_uint8 bits (i lsr 3) land (1 lsl (i land 7)) <> 0),
        cell )
  end

(* ---- oblivious metering ----

   The three USB sites whose lengths could betray hidden data: id-list
   shipments, projection value streams, result emission. Under [Off]
   they go through the device's wire codecs, the PC link's configured
   format and the display link's compact rows; under [Pad] / [Full]
   they bypass the varint encoders — whose sizes are value-dependent —
   and ship fixed-width frames padded up to a public bound, annotated
   with {!Trace.obl} so the leakage quantifier can price each event. *)

let receive_ids ctx ~table ids =
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off -> Device.receive_id_list ctx.device ~table ids
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let bound = Public_store.cardinality ctx.public table in
    let n = Array.length ids in
    let count =
      match m with
      | Oblivious.Pad -> Oblivious.pad_count ~bound n
      | Oblivious.Off | Oblivious.Full -> bound
    in
    let pad = 4 * (count - n) in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.receive ctx.device
      ~obl:{ Trace.obl_bound = bound; obl_values = 1; obl_pad_bytes = pad }
      (Trace.Id_list { table; count })
      ~bytes:(4 * count)

let receive_stream ctx ~table ~column ~ty stream =
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off ->
    Device.receive_value_stream ctx.device ~table ~column ~ty stream
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let bound = Public_store.cardinality ctx.public table in
    let n = Array.length stream in
    let count =
      match m with
      | Oblivious.Pad -> Oblivious.pad_count ~bound n
      | Oblivious.Off | Oblivious.Full -> bound
    in
    let width = 4 + Value.ty_width ty in
    let pad = width * (count - n) in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.receive ctx.device
      ~obl:{ Trace.obl_bound = bound; obl_values = 1; obl_pad_bytes = pad }
      (Trace.Value_stream { table; column; count })
      ~bytes:(width * count)

(* Result emission. The cardinality is the one display-side count that
   depends on hidden data, so this is where the baseline's residual
   leakage concentrates. [Off] emits the real rows in the display
   link's compact codec, whose length follows the values as well as
   the count, so the event is annotated as ranging over every length
   up to [bound] rows of the widest encodable row; [Pad] rounds the
   count up to a power-of-two bucket and [Full] pads to the bound
   itself, both in fixed-width rows of [Plan.emit_row_width]. The bound
   is the live root cardinality capped by the query's LIMIT — both
   public (the spy watched every load, insert and delete, and the LIMIT
   rides in the query text). *)
let emit_rows ctx rows =
  let device = ctx.device in
  let count = List.length rows in
  let live = Catalog.live_count ctx.catalog ctx.plan.Plan.root in
  let bound =
    let b =
      match ctx.plan.Plan.query.Bind.limit with
      | Some l -> min l live
      | None -> live
    in
    (* a global aggregate over an empty table emits one row: never let
       the real count overrun the padding target *)
    max b count
  in
  match ctx.plan.Plan.oblivious with
  | Oblivious.Off ->
    let tys = Bind.output_types ctx.catalog.Catalog.schema ctx.plan.Plan.query in
    Device.emit_rows device
      ~obl:
        {
          Trace.obl_bound = bound;
          obl_values = (bound * Device.Wire.max_row_bytes tys) + 1;
          obl_pad_bytes = 0;
        }
      ~tys rows
  | (Oblivious.Pad | Oblivious.Full) as m ->
    let width = Plan.emit_row_width ctx.catalog.Catalog.schema ctx.plan in
    let bytes = count * width in
    let padded, values =
      match m with
      | Oblivious.Pad ->
        (Oblivious.pad_count ~bound count, Oblivious.bucket_values ~bound)
      | Oblivious.Off | Oblivious.Full -> (bound, 1)
    in
    let padded_bytes = max bytes (padded * width) in
    let pad = padded_bytes - bytes in
    ctx.pad_bytes <- ctx.pad_bytes + pad;
    Device.emit_result device
      ~obl:{ Trace.obl_bound = bound; obl_values = values; obl_pad_bytes = pad }
      ~count:padded ~bytes:padded_bytes

(* ---- pre-filter sources ---- *)

let union ctx sources =
  Merge_union.union ~ram:ctx.ram ~scratch:ctx.scratch
    ~resources:ctx.resources ~cpu:(cpu ctx) sources

(* The sorted id list a set of visible predicates selects, shipped into
   the device. Under [Full] each list ships as its own frame padded to
   the table cardinality, with the CPU charged at that bound; the real
   intersection stays device-side for membership tests. *)
let ship_visible_ids ctx ~table preds =
  let full = ctx.plan.Plan.oblivious = Oblivious.Full in
  measure ctx
    (Printf.sprintf (if full then "ShipPadded(%s)" else "ShipIds(%s)") table)
    ~tuples_in:0
    (fun () ->
    let ship () =
      List.map
        (fun p ->
           let ids = Public_store.select_ids ctx.public ~trace:(Device.trace ctx.device) p in
           receive_ids ctx ~table ids;
           cpu ctx
             (if full then Public_store.cardinality ctx.public table else Array.length ids);
           ids)
        preds
    in
    (* The per-predicate lists ship as one coalesced frame under the
       compact wire format (a no-op batch under the verbose default). *)
    let lists = if full then ship () else Device.with_usb_batch ctx.device ship in
    let ids =
      match lists with
      | [] -> [||]
      | ls -> Sorted_ids.intersect_many ls
    in
    ctx.shipped <- (table, ids) :: ctx.shipped;
    (ids, Array.length ids))

(* Union of the per-value lists of one hidden predicate at [level]. *)
let hidden_pred_cursor ctx ~table ~(pred : Predicate.t) ~level =
  let idx = attr_index_exn ctx ~table ~column:pred.Predicate.column in
  let sources =
    Climbing_index.lookup_cmp ~ram:ctx.ram ?cache:ctx.cache idx pred.Predicate.cmp
      ~level
  in
  union ctx sources

(* Defer cursor construction to the first pull, so the opening reads
   are charged to the operator that drains the stream. *)
let lazy_cursor make =
  let inner = ref None in
  Cursor.make (fun () ->
    let c =
      match !inner with
      | Some c -> c
      | None ->
        let c = make () in
        inner := Some c;
        c
    in
    Cursor.next c)

(* Climb a T-id list to the plan root through the dense key index. *)
let climb ctx ~table ids =
  if table = ctx.plan.Plan.root then Cursor.of_array ids
  else
    lazy_cursor (fun () ->
      let key_idx = key_index_exn ctx table in
      let sources =
        Array.to_list
          (Array.map
             (fun id ->
                Climbing_index.lookup_id ~ram:ctx.ram ?cache:ctx.cache key_idx id
                  ~level:ctx.plan.Plan.root)
             ids)
      in
      union ctx sources)

let intersect_cursors cursors =
  match cursors with
  | [] -> None
  | first :: rest ->
    Some (List.fold_left (Cursor.intersect_sorted ~cmp:Int.compare) first rest)

(* The sorted R-id stream contributed by one plan group, if any. *)
let group_pre_cursor ctx (g : Plan.group) =
  let root = ctx.plan.Plan.root in
  let indexed = Plan.indexed_hidden g in
  let visible_pre = Plan.pre_filtered g in
  if not (Plan.group_produces_pre_source g) then None
  else if visible_pre && Plan.crossed g then begin
    (* Intersect everything at T level, then climb once. *)
    let t_ids = ship_visible_ids ctx ~table:g.Plan.g_table g.Plan.g_visible in
    let filtered =
      measure ctx
        (Printf.sprintf "CrossFilter(%s)" g.Plan.g_table)
        ~tuples_in:(Array.length t_ids)
        (fun () ->
           let hidden_t =
             List.map
               (fun (h : Plan.hidden_pred) ->
                  hidden_pred_cursor ctx ~table:g.Plan.g_table ~pred:h.Plan.h_pred
                    ~level:g.Plan.g_table)
               indexed
             (* deep cross: descendant predicates' lists at this level *)
             @ List.map
                 (fun (d, pred) ->
                    hidden_pred_cursor ctx ~table:d ~pred ~level:g.Plan.g_table)
                 g.Plan.g_borrowed
           in
           let t_stream =
             intersect_cursors (Cursor.of_array t_ids :: hidden_t) |> Option.get
           in
           let filtered = Cursor.to_array t_stream in
           cpu ctx (Array.length filtered);
           (filtered, Array.length filtered))
    in
    Some (climb ctx ~table:g.Plan.g_table filtered)
  end
  else begin
    let hidden_r =
      if indexed = [] then []
      else
        measure ctx
          (Printf.sprintf "IndexLookup(%s)" g.Plan.g_table)
          ~tuples_in:(List.length indexed)
          (fun () ->
             let cursors =
               List.map
                 (fun (h : Plan.hidden_pred) ->
                    hidden_pred_cursor ctx ~table:g.Plan.g_table ~pred:h.Plan.h_pred
                      ~level:root)
                 indexed
             in
             (cursors, List.length cursors))
    in
    let visible_r =
      if not visible_pre then []
      else begin
        let t_ids = ship_visible_ids ctx ~table:g.Plan.g_table g.Plan.g_visible in
        [ climb ctx ~table:g.Plan.g_table t_ids ]
      end
    in
    intersect_cursors (hidden_r @ visible_r)
  end

(* ---- post filters ---- *)

type bloom_filter = {
  bf_table : string;
  bf_level : int;  (* level index in the SKT row *)
  bf : Bloom.t;
  bf_cell : Ram.cell;
}

let build_bloom ctx ~level_of (g : Plan.group) =
  let table = g.Plan.g_table in
  measure ctx (Printf.sprintf "BloomBuild(%s)" table) ~tuples_in:0 (fun () ->
    let lists =
      Device.with_usb_batch ctx.device (fun () ->
        List.map
          (fun p ->
             let ids = Public_store.select_ids ctx.public ~trace:(Device.trace ctx.device) p in
             receive_ids ctx ~table ids;
             ids)
          g.Plan.g_visible)
    in
    let t_ids = Sorted_ids.intersect_many lists in
    (* Cross-post: shrink the insertion set with the hidden predicates'
       own-level index lists before filling the filter. *)
    let t_ids =
      if Plan.crossed g then
        intersect_cursors
          (Cursor.of_array t_ids
           :: List.map
                (fun (h : Plan.hidden_pred) ->
                   hidden_pred_cursor ctx ~table ~pred:h.Plan.h_pred ~level:table)
                (Plan.indexed_hidden g))
        |> Option.get |> Cursor.to_array
      else t_ids
    in
    let n = max 1 (Array.length t_ids) in
    let ideal_bytes = (Bloom.bits_for_fpr ~n ~fpr:ctx.bloom_fpr + 7) / 8 in
    let free = Ram.budget ctx.ram - Ram.in_use ctx.ram in
    let budget = max 64 (min ideal_bytes (free / 4)) in
    let cell = Ram.alloc ctx.ram ~label:(Printf.sprintf "bloom(%s)" table) budget in
    let bf = Bloom.sized_for ~budget_bytes:budget ~n in
    Array.iter
      (fun id ->
         Bloom.add bf id;
         cpu ctx (Bloom.k bf))
      t_ids;
    ( { bf_table = table; bf_level = level_of table; bf; bf_cell = cell },
      Array.length t_ids ))

(* ---- projection phase ---- *)

(* Join one sorted (id, value) stream against the rows on the ids at
   [level]. In-RAM hash join when the stream fits in half the free
   arena, or in all of it when the sort could not run; external
   sort-merge otherwise. [verify] drops rows without a match (Bloom
   false positives); attach_value keeps the joined value on the row. *)
let join_stream ctx ~label ~level ~verify ~attach_value ~value_width ~rows fetch_stream =
  measure ctx label ~tuples_in:(List.length rows) (fun () ->
    let stream : (int * Value.t) array = fetch_stream () in
    let n = Array.length stream in
    let hash_bytes = n * (8 + value_width) in
    let free = Ram.budget ctx.ram - Ram.in_use ctx.ram in
    (* Sort records carry the row's ids, its ordinal and its attached
       values, so the simulated Flash traffic is honest. *)
    let record_bytes =
      match rows with
      | [] -> 4
      | r :: _ -> (4 * Array.length r.ids) + 4 + (8 * List.length r.attached)
    in
    let joined =
      if hash_bytes <= free / 2
         || hash_bytes <= free
            && not
                 (Ext_sort.fits ~ram:ctx.ram ~scratch:ctx.scratch ~record_bytes
                    ~records:(List.length rows))
      then begin
        (* RAM-resident hash join. *)
        Ram.with_alloc ctx.ram ~label:(label ^ "-hash") hash_bytes (fun _ ->
          let table = Hashtbl.create (max 16 n) in
          Array.iter (fun (id, v) -> Hashtbl.replace table id v) stream;
          cpu ctx (2 * n);
          List.filter_map
            (fun row ->
               cpu ctx 3;
               match Hashtbl.find_opt table row.ids.(level) with
               | Some v ->
                 if attach_value then row.attached <- v :: row.attached;
                 Some row
               | None ->
                 if verify then begin
                   ctx.bloom_fps <- ctx.bloom_fps + 1;
                   None
                 end
                 else begin
                   (* approximate mode: a Bloom false positive survives
                      with an unknown (NULL) projected value *)
                   if attach_value then row.attached <- Value.Null :: row.attached;
                   Some row
                 end)
            rows)
      end
      else begin
        (* Spill: sort the rows by the join id on scratch, merge with
           the sorted stream. *)
        let rows_arr = Array.of_list rows in
        let encode i =
          let b = Bytes.make record_bytes '\000' in
          Codec.put_u32 b 0 rows_arr.(i).ids.(level);
          Codec.put_u32 b 4 i;
          b
        in
        let input = Cursor.map encode (Cursor.of_array (Array.init (Array.length rows_arr) Fun.id)) in
        let sorted =
          Ext_sort.sort ~ram:ctx.ram ~scratch:ctx.scratch
            ~resources:ctx.resources ~cpu:(cpu ctx) ~record_bytes
            ~compare:(fun a b -> Int.compare (Codec.get_u32 a 0) (Codec.get_u32 b 0))
            input
        in
        let out =
          Cursor.merge_join
            ~left_key:(fun b -> Codec.get_u32 b 0)
            ~right_key:fst sorted (Cursor.of_array stream)
          |> Cursor.to_list
        in
        cpu ctx (2 * List.length out);
        let matched = Hashtbl.create 64 in
        List.iter
          (fun (record, (_, v)) ->
             let ordinal = Codec.get_u32 record 4 in
             Hashtbl.replace matched ordinal v)
          out;
        (List.concat_map
             (fun i ->
                let row = rows_arr.(i) in
                match Hashtbl.find_opt matched i with
                | Some v ->
                  if attach_value then row.attached <- v :: row.attached;
                  [ row ]
                | None ->
                  if verify then begin
                    ctx.bloom_fps <- ctx.bloom_fps + 1;
                    []
                  end
                  else begin
                    if attach_value then row.attached <- Value.Null :: row.attached;
                    [ row ]
                  end)
           (List.init (Array.length rows_arr) Fun.id))
      end
    in
    (joined, List.length joined))

let check_bloom_fpr fpr =
  (* [not (fpr > 0. && fpr < 1.)] also rejects NaN *)
  if not (fpr > 0. && fpr < 1.) then
    invalid_arg
      (Printf.sprintf
         "Exec: bloom_fpr must lie strictly between 0 and 1, got %g" fpr)

(* ---- the plan body ----

   One pipeline runs every plan; [Plan.oblivious] picks its shape at
   three points (DESIGN.md section 15.3):

   - candidate generation: the Pre-filter sources merged into candidate
     ids (Merge+Index), Bloom filters, and SKT probes of the candidates
     (AccessSKT, which reads no SKT row when {!Plan.reads_skt} is
     false); under [Full], padded visible shipments (ShipPadded)
     and a bound-depth SKT scan of every loaded root id (BoundScan);
   - predicate evaluation: short-circuit; under [Full], uniform — every
     test runs and charges its CPU whatever the earlier ones returned,
     since a skipped check would show on the clock;
   - the delta scan and projection streams: a key-fenced, filtered scan
     and selection-filtered streams with verifying joins; under [Full],
     the whole log and full-column streams, keeping every row.

   Under [Full] the rows failing a test travel to the end with
   [live = false] and are dropped only after tuple building, so all the
   spy observes — frame count and lengths, page touches, the device
   clock — is a function of the schema and public bounds (table
   cardinalities, live root count, log lengths), never of hidden data.
   RAM occupancy inside the tamper-resistant device may vary with the
   data; it is on no spy-visible link. *)
let execute_plan ~exact_post ~bloom_fpr ~scratch catalog public plan =
  Plan.validate plan;
  check_bloom_fpr bloom_fpr;
  let full = plan.Plan.oblivious = Oblivious.Full in
  let device = catalog.Catalog.device in
  Resources.with_resources (fun resources ->
    let ctx =
      {
        catalog;
        public;
        plan;
        device;
        ram = Device.ram device;
        scratch;
        cache = Device.page_cache device;
        resources;
        ops_rev = [];
        bloom_fpr;
        bloom_fps = 0;
        shipped = [];
        pad_bytes = 0;
      }
    in
    let schema = catalog.Catalog.schema in
    let root = plan.Plan.root in
    let trace = Device.trace device in
    let global_scope = Ram.open_scope ctx.ram in
    (* If execution dies mid-plan (cancellation, RAM exhaustion), the
       scope must still be closed so the arena stops tracking it; a
       second close on the normal path below is a no-op. *)
    Resources.defer resources (fun () ->
      ignore (Ram.close_scope ctx.ram global_scope));
    let run_start = Device.snapshot device in
    (* The query text itself travels to the device (spy-visible). *)
    ignore
      (measure ctx "ReceiveQuery" ~tuples_in:0 (fun () ->
         Device.receive_query device plan.Plan.query.Bind.text;
         ((), 0)));
    (* SKT layout for the plan root. *)
    let skt_opt = Catalog.skt catalog root in
    let levels =
      match skt_opt with
      | Some skt -> Skt.levels skt
      | None -> [ root ]
    in
    let level_of table =
      let rec loop i = function
        | [] -> fail "table %s is not in the subtree of %s" table root
        | t :: rest -> if t = table then i else loop (i + 1) rest
      in
      loop 0 levels
    in
    (* Deleted root rows: load the tombstone log into RAM once and
       filter every candidate (main and delta) against it. *)
    let tombstones =
      match Catalog.tombstone catalog root with
      | None -> [||]
      | Some log ->
        measure ctx "TombstoneLoad" ~tuples_in:0 (fun () ->
          let ids = Tombstone_log.load_sorted log in
          let cell =
            Ram.alloc ctx.ram ~label:"tombstones" (max 4 (4 * Array.length ids))
          in
          Resources.defer resources (fun () -> Ram.free ctx.ram cell);
          cpu ctx (Array.length ids);
          (ids, Array.length ids))
    in
    (* Row tests over SKT id vectors, and their conjunction: the fold
       keeps evaluating after a miss on purpose. *)
    let all_pass tests x =
      if full then List.fold_left (fun acc t -> let ok = t x in acc && ok) true tests
      else List.for_all (fun t -> t x) tests
    in
    let not_deleted ids = not (Sorted_ids.member tombstones ids.(0)) in
    (* Membership in the shipped visible selections; charged only under
       [Full], where it stands in for the Pre-filter's intersections. *)
    let shipped_tests () =
      List.map
        (fun (table, shipped) ->
           let lvl = level_of table in
           fun ids ->
             if full then cpu ctx 2;
             Sorted_ids.member shipped ids.(lvl))
        ctx.shipped
    in
    let bloom_test b ids =
      cpu ctx (Bloom.k b.bf);
      Bloom.mem b.bf ids.(b.bf_level)
    in
    (* 1. Candidate root ids. A countable plan (see {!Plan.count_source})
       sums the directory counts of its one predicate instead: no id is
       read, and Merge+Index and AccessSKT stay in the ledger empty. *)
    let n_root = Catalog.table_count catalog root in
    let counted =
      Plan.count_source ~tombstones:(Catalog.tombstone_count catalog root) plan
      |> Option.map (fun (table, pred) ->
        let n =
          measure ctx
            (Printf.sprintf "IndexLookup(%s)" table)
            ~tuples_in:1
            (fun () ->
               let idx = attr_index_exn ctx ~table ~column:pred.Predicate.column in
               let entries, n =
                 Climbing_index.count_cmp ~ram:ctx.ram ?cache:ctx.cache idx
                   pred.Predicate.cmp ~level:root
               in
               cpu ctx entries;
               (n, 1))
        in
        ignore (measure ctx "Merge+Index" ~tuples_in:0 (fun () -> ((), 0)));
        n)
    in
    let candidates =
      if counted <> None then [||]
      else if full then begin
        List.iter
          (fun (g : Plan.group) ->
             if g.Plan.g_visible <> [] then
               ignore (ship_visible_ids ctx ~table:g.Plan.g_table g.Plan.g_visible))
          plan.Plan.groups;
        Array.init n_root (fun i -> i + 1)
      end
      else begin
        (* Pre-filter ("Merge+Index"). *)
        let pre_cursors = List.filter_map (group_pre_cursor ctx) plan.Plan.groups in
        measure ctx "Merge+Index" ~tuples_in:0 (fun () ->
          let c =
            match intersect_cursors pre_cursors with
            | Some c -> c
            | None ->
              (* No pre source: enumerate all root ids (dense). *)
              let i = ref 0 in
              Cursor.make (fun () ->
                incr i;
                if !i > n_root then None else Some !i)
          in
          let arr = Cursor.to_array c in
          cpu ctx (Array.length arr);
          let arr =
            (* A visible pre-filter on the root ships public-store ids,
               which include rows inserted after the load. The SKT and
               the column stores do not cover those: drop them here (the
               delta scan below finds them through the same id lists). *)
            let n = Array.length arr in
            if n = 0 || arr.(n - 1) <= n_root then arr
            else begin
              let k = ref 0 in
              while !k < n && arr.(!k) <= n_root do incr k done;
              Array.sub arr 0 !k
            end
          in
          let arr =
            if Array.length tombstones = 0 then arr
            else Sorted_ids.difference arr tombstones
          in
          (arr, Array.length arr))
      end
    in
    (* 2. Post-filter structures: Bloom filters, and a reader for each
       [H_check] predicate, opened once for AccessSKT and DeltaScan
       alike. [Full] opens its readers in BoundScan. *)
    let blooms =
      if full then []
      else
        List.filter Plan.post_filtered plan.Plan.groups
        |> List.map (fun g -> build_bloom ctx ~level_of g)
    in
    List.iter (fun b -> Resources.defer resources (fun () -> Ram.free ctx.ram b.bf_cell)) blooms;
    let hidden =
      List.concat_map
        (fun (g : Plan.group) ->
           List.map
             (fun (h : Plan.hidden_pred) ->
                let reader =
                  if (not full) && h.Plan.h_strategy = Plan.H_check then
                    Some
                      (open_column ctx ~table:g.Plan.g_table
                         ~column:h.Plan.h_pred.Predicate.column)
                  else None
                in
                (g, h, reader))
             g.Plan.g_hidden)
        plan.Plan.groups
    in
    let check (g : Plan.group) (h : Plan.hidden_pred) r =
      let lvl = level_of g.Plan.g_table in
      fun ids ->
        cpu ctx 2;
        Predicate.holds h.Plan.h_pred (Column_store.get r ids.(lvl))
    in
    (* Under [Full] a scan in root-id order reads through a paged window
       when the arena holds a page, through the point-read window
       otherwise. *)
    let paged () = full && Ram.would_fit ctx.ram (page_size ctx) in
    (* [Full]'s bitmaps, filled by BoundScan for the predicates below the
       root, tested again by DeltaScan and freed after it. *)
    let bitmaps = ref [] in
    (* 3. SKT access + probes. Under [Full] every root id is a
       candidate, so tombstones and visible selections are tested here;
       the Pre-filtered candidates passed both in Merge+Index. *)
    let surviving =
      measure ctx
        (if full then "BoundScan" else "AccessSKT")
        ~tuples_in:(Array.length candidates)
        (fun () ->
           (* [Full] closes the readers it opens here when the scan ends. *)
           let closes = ref [] in
           let checks =
             List.filter_map
               (fun ((g : Plan.group), (h : Plan.hidden_pred), reader) ->
                  if not full then Option.map (check g h) reader
                  else begin
                    let table = g.Plan.g_table in
                    let column = h.Plan.h_pred.Predicate.column in
                    match
                      Option.bind (Plan.delta_bitmap plan g h) (fun fill ->
                        pred_bitmap ctx fill ~table h.Plan.h_pred)
                    with
                    | Some ((mem, _) as bitmap) ->
                      bitmaps := (h, bitmap) :: !bitmaps;
                      let lvl = level_of table in
                      Some (fun ids -> mem ids.(lvl))
                    | None ->
                      let paged = table = root && paged () in
                      let r = open_column ~paged ctx ~table ~column in
                      closes := (fun () -> Column_store.close_reader r) :: !closes;
                      Some (check g h r)
                  end)
               hidden
           in
           let tests =
             if full then (not_deleted :: checks) @ shipped_tests ()
             else List.map bloom_test blooms @ checks
           in
           (* Point probes: a small window keeps the charged read close
              to the row size while still batching adjacent candidates;
              [Full] walks every row in order, page by page. An
              index-only plan probes nothing: the candidate id is the
              whole vector. *)
           let reader =
             match skt_opt with
             | Some skt when Plan.reads_skt plan ->
               let r =
                 if paged () then
                   Skt.open_reader ~ram:ctx.ram ~paged:true ?cache:ctx.cache skt
                 else Skt.open_reader ~ram:ctx.ram ~buffer_bytes:64 ?cache:ctx.cache skt
               in
               Resources.defer resources (fun () -> Skt.close_reader r);
               closes := (fun () -> Skt.close_reader r) :: !closes;
               Some r
             | Some _ | None -> None
           in
           let n_live = ref 0 in
           let rows =
             Array.to_list candidates
             |> List.filter_map (fun id ->
               let ids =
                 match reader with
                 | Some r -> Skt.get r id
                 | None -> [| id |]
               in
               if full then cpu ctx 1;
               let live = all_pass tests ids in
               if live then incr n_live;
               if live || full then
                 Some { ids; attached = []; delta_hidden = None; live }
               else None)
           in
           if full then List.iter (fun close -> close ()) !closes;
           (rows, !n_live))
    in
    (* Rows inserted after the load live in the delta log: scan it,
       applying every predicate directly (the root-level index lists do
       not cover them; a table below the root gains no row, so its own
       level does). Visible Pre-filter predicates use the shipped id
       lists; Post predicates use the Bloom filters (plus the exact
       verification joins below, like main rows). *)
    let delta_rows =
      match Catalog.delta catalog root with
      | None -> []
      | Some log ->
        (* Under [Full] the log is read end to end: its length is public
           (the spy watched every insert, and compaction folding depends
           only on the public insert/delete volume). *)
        measure ctx "DeltaScan"
          ~tuples_in:(if full then Delta_log.physical_records log else Delta_log.count log)
          (fun () ->
          (* Root columns ride in the record. A deeper predicate that
             {!Plan.delta_bitmap} names tests one bit of a bitmap — under
             [Full] BoundScan's, otherwise one filled when the first
             record needs it — or reads a fresh reader per record when
             the arena refused the bitmap; every other one reads its
             check reader per record. *)
          let hidden_test ((g : Plan.group), (h : Plan.hidden_pred), reader) =
            let pred = h.Plan.h_pred in
            let table = g.Plan.g_table in
            let lvl = level_of table in
            let holds v =
              if full then cpu ctx 2;
              Predicate.holds pred v
            in
            let read_column () =
              let reader = open_column ctx ~table ~column:pred.Predicate.column in
              fun id -> holds (Column_store.get reader id)
            in
            if lvl = 0 then fun (r : Delta_log.row) ->
              holds (Delta_log.hidden_value log r pred.Predicate.column)
            else if full then begin
              let mem =
                match List.assq_opt h !bitmaps with
                | Some (mem, _) -> mem
                | None -> read_column ()
              in
              fun r -> mem r.Delta_log.ids.(lvl)
            end
            else
              match Plan.delta_bitmap plan g h, reader with
              | Some fill, _ ->
                let test = ref None in
                fun r ->
                  let mem =
                    match !test with
                    | Some mem -> mem
                    | None ->
                      let mem =
                        match pred_bitmap ctx fill ~table pred with
                        | Some (mem, _) -> mem
                        | None -> read_column ()
                      in
                      test := Some mem;
                      mem
                  in
                  mem r.Delta_log.ids.(lvl)
              | None, reader ->
                let reader = Option.get reader in
                fun r -> holds (Column_store.get reader r.Delta_log.ids.(lvl))
          in
          let on_ids test (r : Delta_log.row) = test r.Delta_log.ids in
          let tests =
            on_ids not_deleted
            :: List.map hidden_test hidden
            @ List.map on_ids (shipped_tests ())
            @ List.map (fun b -> on_ids (bloom_test b)) blooms
          in
          (* Merge-on-read bounds: a Pre-filtered root selection fences
             the scan — run pages outside the shipped id range are
             skipped (superset emission; the membership test still
             decides). A log with no run has nothing to skip, so the
             fence changes nothing there; [Full] never lets the touched
             page set depend on the selection. *)
          let lo, hi =
            if full then (None, None)
            else begin
              let root_pre =
                List.exists
                  (fun (g : Plan.group) -> g.Plan.g_table = root && Plan.pre_filtered g)
                  plan.Plan.groups
              in
              if not root_pre then (None, None)
              else
                match List.assoc_opt root ctx.shipped with
                | Some ids when Array.length ids > 0 ->
                  (Some ids.(0), Some ids.(Array.length ids - 1))
                | Some _ -> (Some 0, Some (-1))  (* empty selection *)
                | None -> (None, None)
            end
          in
          (* Run value pages are read only for a plan that needs the
             root's hidden values; an id-only row carries none, so a
             projection that wanted one would fail loudly. A row read
             from a run costs one CPU op more per id field unpacked. *)
          let values = Plan.reads_delta_values schema plan in
          let out = ref [] in
          let n_live = ref 0 in
          Delta_log.scan_range ?lo ?hi ~values ~on_unpack:(cpu ctx) log (fun r ->
            cpu ctx 5;
            let live = all_pass tests r in
            if live then incr n_live;
            if live || full then
              out :=
                {
                  ids = r.Delta_log.ids;
                  attached = [];
                  delta_hidden =
                    Some (if values then Delta_log.hidden_assoc log r else []);
                  live;
                }
                :: !out);
          (List.rev !out, !n_live))
    in
    List.iter (fun (_, (_, cell)) -> Ram.free ctx.ram cell) !bitmaps;
    let surviving = surviving @ delta_rows in
    (* 4. Projection joins: visible projected columns + verification of
       Post-filtered tables. *)
    let projected_visible = Plan.visible_projections schema plan in
    let post_tables = List.map (fun b -> b.bf_table) blooms in
    let verify_only_tables =
      if not exact_post then []
      else
        List.filter
          (fun t -> not (List.exists (fun (t', _, _) -> t' = t) projected_visible))
          post_tables
    in
    let visible_preds_on = Plan.visible_selections schema plan in
    let rows = ref surviving in
    List.iter
      (fun (table, column, ty) ->
         let width = Value.ty_width ty in
         let fetch () =
           let stream =
             Public_store.stream_column ctx.public ~trace ~table ~column
               ~preds:(if full then [] else visible_preds_on table)
           in
           receive_stream ctx ~table ~column ~ty stream;
           stream
         in
         let verify = exact_post && List.mem table post_tables in
         rows :=
           join_stream ctx
             ~label:(Printf.sprintf "Project+Join(%s.%s)" table column)
             ~level:(level_of table) ~verify ~attach_value:true ~value_width:width
             ~rows:!rows fetch)
      projected_visible;
    List.iter
      (fun table ->
         let preds = visible_preds_on table in
         rows :=
           join_stream ctx
             ~label:(Printf.sprintf "Verify(%s)" table)
             ~level:(level_of table) ~verify:true ~attach_value:false ~value_width:0
             ~rows:!rows
             (fun () ->
                let ids = ship_visible_ids ctx ~table preds in
                Array.map (fun id -> (id, Value.Null)) ids))
      verify_only_tables;
    (* 5. Final projection + emission to the secure display. Tuples are
       built for dead rows too (identical hidden-column page touches),
       then dropped. *)
    let attach_order = List.map (fun (t, c, _) -> (t, c)) projected_visible in
    let result_rows =
      measure ctx "Project" ~tuples_in:(List.length !rows) (fun () ->
        (* Readers for projected hidden columns; the rows arrive in
           root-id order, so a root column reads by pages under [Full]. *)
        let hidden_readers = Hashtbl.create 8 in
        let reader_for table column =
          match Hashtbl.find_opt hidden_readers (table, column) with
          | Some r -> r
          | None ->
            let r = open_column ~paged:(table = root && paged ()) ctx ~table ~column in
            Hashtbl.replace hidden_readers (table, column) r;
            r
        in
        let out =
          List.filter_map
            (fun row ->
               let attached = Array.of_list (List.rev row.attached) in
               let tuple =
                 Array.of_list
                   (List.map
                      (fun (table, column) ->
                         cpu ctx 2;
                         let tbl = Schema.find_table schema table in
                         if column = tbl.Schema.key then
                           Value.Int row.ids.(level_of table)
                         else begin
                           let col = Schema.find_column tbl column in
                           if Column.is_hidden col then begin
                             match row.delta_hidden with
                             | Some assoc when table = root ->
                               List.assoc column assoc
                             | Some _ | None ->
                               Column_store.get (reader_for table column)
                                 row.ids.(level_of table)
                           end
                           else begin
                             let rec pos i = function
                               | [] -> fail "projection %s.%s not attached" table column
                               | (t, c) :: rest ->
                                 if t = table && c = column then i else pos (i + 1) rest
                             in
                             attached.(pos 0 attach_order)
                           end
                         end)
                      plan.Plan.query.Bind.projections)
               in
               if row.live then Some tuple else None)
            !rows
        in
        let n_in = List.length !rows in
        (* Aggregate queries fold the base rows on the device; the group
           table is RAM-resident. *)
        let out =
          match plan.Plan.query.Bind.aggregate with
          | None -> out
          | Some spec ->
            cpu ctx (5 * n_in);
            let grouped = Ghost_sql.Aggregate.apply spec out in
            (* A counted plan's main rows come in as their count. *)
            let grouped =
              match counted with
              | None -> grouped
              | Some n ->
                List.map
                  (Array.map (function Value.Int c -> Value.Int (c + n) | v -> v))
                  grouped
            in
            (* each group row at its output types' widths, as emitted *)
            let group_bytes =
              max 16
                (List.length grouped
                 * Plan.emit_row_width ctx.catalog.Catalog.schema plan)
            in
            Ram.with_alloc ctx.ram ~label:"aggregate-groups" group_bytes (fun _ -> ());
            grouped
        in
        (* ORDER BY / LIMIT: the output rows are sorted in device RAM
           just before emission — under [Full], priced at the padded
           input count. *)
        let out =
          match plan.Plan.query.Bind.order_by, plan.Plan.query.Bind.limit with
          | [], None -> out
          | order_by, limit ->
            let n = if full then n_in else List.length out in
            cpu ctx (n * Ext_sort.log2_floor n);
            Ram.with_alloc ctx.ram ~label:"order-by"
              (max 16 (n * 8))
              (fun _ -> Ghost_sql.Postproc.apply ~order_by ~limit out)
        in
        (* Emission is priced after LIMIT: only emitted rows cross the
           display link. *)
        emit_rows ctx out;
        (out, List.length out))
    in
    (* 6. Reclaim the scratch region (block erases count). Live bytes,
       not cumulative programs: a pooled per-session region carries the
       program counters of earlier sessions, but only pages spilled by
       THIS plan are live here (the region is handed over erased). *)
    let scratch = ctx.scratch in
    if Flash.live_bytes scratch > 0 then
      ignore
        (measure ctx "ScratchReclaim" ~tuples_in:0 (fun () ->
           Flash.erase_live_blocks scratch;
           ((), 0)));
    Resources.release resources;
    (* Buffer-manager counters travel with the results on the secure
       display channel (zero bytes — they are rendered, not shipped). *)
    (match ctx.cache with
     | Some c ->
       let s = Page_cache.stats c in
       Trace.record trace Trace.Device_to_display
         (Trace.Cache_stats
            {
              hits = s.Page_cache.hits;
              misses = s.Page_cache.misses;
              evictions = s.Page_cache.evictions;
            })
         ~bytes:0
     | None -> ());
    let total =
      Device.usage_between device ~before:run_start ~after:(Device.snapshot device)
    in
    let ram_peak = Ram.close_scope ctx.ram global_scope in
    {
      rows = result_rows;
      row_count = List.length result_rows;
      ops = List.rev ctx.ops_rev;
      total;
      elapsed_us = total.Device.total_us;
      ram_peak;
      bloom_fp_candidates = ctx.bloom_fps;
      oblivious = plan.Plan.oblivious;
      padding_bytes = ctx.pad_bytes;
    })

(* Graceful degradation under a detected integrity failure. A caught
   {!Flash.Integrity_error} aborts the attempt cleanly (the deferred
   RAM-scope close runs, the scratch region is reclaimable), and
   {!Catalog.retry_transient} classifies it: a transient fault (the
   cells still verify) retries the plan once from the top; persistent
   damage fails the session with the original error — never with
   silently wrong rows. *)
let execute ?(exact_post = true) ?(bloom_fpr = 0.01) ~scratch catalog public
    plan =
  Catalog.retry_transient catalog (fun () ->
      execute_plan ~exact_post ~bloom_fpr ~scratch catalog public plan)

let run ?exact_post ?bloom_fpr catalog public plan =
  execute ?exact_post ?bloom_fpr
    ~scratch:(Device.scratch catalog.Catalog.device) catalog public plan

(* ---- resumable execution (the scheduler's step machine) ----

   The plan body above is written as one straight-line computation; to
   time-slice it without threading explicit state through every
   operator, it runs under an effect handler. The device's tick hook
   (invoked after every CPU / USB charge, i.e. at tuple granularity)
   performs [Yield] once the slice has consumed its quantum of
   simulated microseconds; the handler captures the one-shot
   continuation and hands control back to the scheduler. With an
   infinite quantum no hook is installed and the computation is the
   plain [run] — bit-identical results, trace and clock. *)

type _ Effect.t += Yield : unit Effect.t

exception Cancelled

type step_outcome = Yielded | Finished of result

type sm_state =
  | Sm_pending of (unit -> step_outcome)
  | Sm_suspended of (unit, step_outcome) Effect.Deep.continuation
  | Sm_finished of result
  | Sm_failed
  | Sm_cancelled

type step_machine = {
  sm_device : Device.t;
  sm_quantum : float;
  mutable sm_state : sm_state;
}

let start ?(quantum_us = infinity) ?scratch catalog public plan =
  if not (quantum_us > 0.) then
    invalid_arg "Exec.start: quantum_us must be positive";
  let device = catalog.Catalog.device in
  let scratch =
    match scratch with Some s -> s | None -> Device.scratch device
  in
  {
    sm_device = device;
    sm_quantum = quantum_us;
    sm_state =
      Sm_pending
        (fun () ->
           Finished (execute ~scratch catalog public plan));
  }

let finished m =
  match m.sm_state with Sm_finished r -> Some r | _ -> None

let step m =
  match m.sm_state with
  | Sm_finished r -> Finished r
  | Sm_failed -> invalid_arg "Exec.step: the execution previously failed"
  | Sm_cancelled -> invalid_arg "Exec.step: the execution was cancelled"
  | (Sm_pending _ | Sm_suspended _) as state ->
    let slice_start = Device.elapsed_us m.sm_device in
    if m.sm_quantum < infinity then
      Device.set_on_tick m.sm_device
        (Some
           (fun () ->
              if Device.elapsed_us m.sm_device -. slice_start >= m.sm_quantum
              then Effect.perform Yield));
    Fun.protect ~finally:(fun () -> Device.set_on_tick m.sm_device None)
    @@ fun () ->
    let outcome =
      match state with
      | Sm_pending thunk ->
        Effect.Deep.match_with thunk ()
          {
            Effect.Deep.retc = Fun.id;
            exnc =
              (fun e ->
                 m.sm_state <- Sm_failed;
                 raise e);
            effc =
              (fun (type a) (eff : a Effect.t) ->
                 match eff with
                 | Yield ->
                   Some
                     (fun (k : (a, step_outcome) Effect.Deep.continuation) ->
                        m.sm_state <- Sm_suspended k;
                        Yielded)
                 | _ -> None);
          }
      | Sm_suspended k ->
        (* One-shot: consumed now; the handler installed by the first
           slice's [match_with] re-captures on the next yield. *)
        Effect.Deep.continue k ()
      | Sm_finished _ | Sm_failed | Sm_cancelled -> assert false
    in
    (match outcome with
     | Finished r -> m.sm_state <- Sm_finished r
     | Yielded -> ());
    outcome

let cancel m =
  match m.sm_state with
  | Sm_pending _ -> m.sm_state <- Sm_cancelled
  | Sm_suspended k ->
    (* Raise [Cancelled] at the suspension point: the unwinding runs
       the plan's deferred releases (RAM cells, readers, the global
       scope), so the arena and the scratch lease come back clean. Any
       exception out of the unwinding — normally [Cancelled] itself,
       re-raised by the deep handler — ends the session either way. *)
    (try ignore (Effect.Deep.discontinue k Cancelled : step_outcome)
     with _ -> ());
    m.sm_state <- Sm_cancelled
  | Sm_finished _ | Sm_failed | Sm_cancelled -> ()

let pp_ops fmt ops =
  Format.fprintf fmt "%-28s %10s %10s %10s %12s@." "operator" "in" "out" "ram(B)"
    "time(us)";
  List.iter
    (fun o ->
       Format.fprintf fmt "%-28s %10d %10d %10d %12.0f@." o.op_label o.tuples_in
         o.tuples_out o.ram_peak o.usage.Device.total_us)
    ops
