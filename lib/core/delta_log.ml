module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Page_cache = Ghost_device.Page_cache
module Log_run = Ghost_store.Log_run
module Append_log = Ghost_store.Append_log

(* A resumable compaction unit: one output run being built from either
   the current L0 prefix (a spill) or every run of one level (a
   merge). All fields are plain data — no closures — so an in-flight
   compaction survives a marshalled device image. *)
type source =
  | S_records of (int array * string) list
      (* spill: the L0 records as ids and value part, key order *)
  | S_merge of Log_run.merge

type compaction = {
  c_level : int;  (* output run level *)
  c_builder : Log_run.builder;
  mutable c_source : source;
  c_input_runs : Log_run.t list;  (* runs consumed on install (merge) *)
  c_spill_pages : int;  (* oldest L0 full pages consumed on install (spill) *)
  mutable c_dropped : int;  (* tombstoned records folded away so far *)
}

type t = {
  flash : Flash.t;
  levels : string array;
  max_ids : int array;
      (* the largest id of each level below the root: its table's
         public cardinality *)
  hidden_cols : (string * Value.ty) array;
  id_bytes : int;  (* a record's ids, one u32 per level, root first *)
  record_bytes : int;  (* ids, then the root's hidden values *)
  cache : Page_cache.t option;
      (* invalidated when compaction programs a recycled Flash page *)
  policy : Device.log_runs;
  l0 : Append_log.t;  (* the unspilled recent records *)
  mutable runs : Log_run.t list;  (* ascending min_key = chronological *)
  mutable dropped : int;  (* tombstoned records compaction dropped *)
  mutable compaction : compaction option;  (* in-flight output run *)
  mutable compacted_dead : int;  (* bytes of compaction inputs and abandoned builds *)
}

let create ?cache ~runs flash ~levels ~max_ids ~hidden_cols =
  if List.length max_ids <> List.length levels - 1 then
    invalid_arg "Delta_log.create: max_ids misaligned with the levels below the root";
  if List.exists (fun m -> m < 0 || m > 0xFFFF_FFFF) max_ids then
    invalid_arg "Delta_log.create: a largest id outside 0..2^32-1";
  if runs.Device.l0_spill_pages < 1 || runs.Device.run_fanout < 2 then
    invalid_arg "Delta_log.create: spill threshold < 1 or fanout < 2";
  let id_bytes = 4 * List.length levels in
  let value_bytes =
    List.fold_left (fun acc (_, ty) -> acc + Value.ty_width ty) 0 hidden_cols
  in
  (* the widest id record: a root field of 32 bits *)
  let id_bits = List.fold_left (fun acc m -> acc + Codec.bits_for m) 32 max_ids in
  if Log_run.records_per_page flash ~record_bits:(max id_bits (8 * value_bytes)) < 1 then
    invalid_arg "Delta_log.create: record exceeds a run page";
  let record_bytes = id_bytes + value_bytes in
  {
    flash;
    levels = Array.of_list levels;
    max_ids = Array.of_list max_ids;
    hidden_cols = Array.of_list hidden_cols;
    id_bytes;
    record_bytes;
    cache;
    policy = runs;
    l0 = Append_log.create ?cache flash ~tag:"GDLT" ~record_bytes;
    runs = [];
    dropped = 0;
    compaction = None;
    compacted_dead = 0;
  }

let count t = Append_log.count t.l0
let acknowledged t = Append_log.acknowledged t.l0
let record_bytes t = t.record_bytes
let needs_recovery t = Append_log.needs_recovery t.l0

let dead_bytes t = Append_log.dead_bytes t.l0 + t.compacted_dead

let has_runs t = t.runs <> []
let run_count t = List.length t.runs
let run_pages t = List.fold_left (fun a r -> a + Log_run.page_count r) 0 t.runs

let run_id_pages t =
  List.fold_left (fun a r -> a + Array.length r.Log_run.id_pages) 0 t.runs

let run_records t = List.fold_left (fun a r -> a + r.Log_run.count) 0 t.runs
let l0_pages t = Append_log.page_count t.l0
let pages t = Append_log.pages t.l0 @ List.concat_map Log_run.pages t.runs

(* Records a sequential scan touches: the logical count minus what
   compaction folded away. *)
let physical_records t = count t - t.dropped
let dropped_records t = t.dropped

let size_bytes t =
  Append_log.size_bytes t.l0 + List.fold_left (fun a r -> a + Log_run.size_bytes r) 0 t.runs

type row = {
  ids : int array;
  hidden : Value.t array;
}

let encode t { ids; hidden } =
  if Array.length ids <> Array.length t.levels then
    invalid_arg "Delta_log.append: id vector misaligned with levels";
  Array.iteri
    (fun i id ->
       if i > 0 && (id < 0 || id > t.max_ids.(i - 1)) then
         invalid_arg
           (Printf.sprintf "Delta_log.append: %s id %d exceeds the largest id of its table"
              t.levels.(i) id))
    ids;
  if Array.length hidden <> Array.length t.hidden_cols then
    invalid_arg "Delta_log.append: hidden values misaligned";
  let buf = Buffer.create t.record_bytes in
  Array.iter
    (fun id ->
       let b = Bytes.create 4 in
       Codec.put_u32 b 0 id;
       Buffer.add_bytes buf b)
    ids;
  Array.iteri
    (fun i v ->
       let _, ty = t.hidden_cols.(i) in
       Buffer.add_bytes buf (Value.encode ty v))
    hidden;
  Buffer.contents buf

let append t rows = Append_log.append t.l0 (List.map (encode t) rows)

let decode_ids t b off =
  Array.init (Array.length t.levels) (fun i -> Codec.get_u32 b (off + (4 * i)))

let decode_values t b off =
  let pos = ref off in
  Array.map
    (fun (_, ty) ->
       let v = Value.decode ty b !pos in
       pos := !pos + Value.ty_width ty;
       v)
    t.hidden_cols

(* ---- leveled compaction ---- *)

(* Runs at [level], oldest first (the runs list is chronological). *)
let runs_at t level = List.filter (fun r -> r.Log_run.level = level) t.runs

let spill_ready t =
  List.length (Append_log.full_pages t.l0) >= t.policy.Device.l0_spill_pages

let merge_level t =
  let rec probe level =
    match runs_at t level with
    | [] -> None
    | rs when List.length rs >= t.policy.Device.run_fanout -> Some level
    | _ -> probe (level + 1)
  in
  probe 1

let compaction_pending t =
  (not (needs_recovery t))
  && (t.compaction <> None || spill_ready t || merge_level t <> None)

type step =
  | Idle
  | Worked
  | Installed of installed

and installed = {
  inst_spill : bool;
  inst_level : int;  (* level of the installed run *)
  inst_pages : int;  (* run pages it programmed *)
  inst_records : int;
  inst_dropped : int;  (* tombstoned records folded away *)
}

(* Starts the next compaction unit. The spill decodes its whole input
   up front — L0 is bounded by the spill threshold, the memtable role
   — while a merge reads its input runs one page at a time through the
   cursor, so RAM stays bounded however deep the tree grows. *)
let start_compaction t =
  if t.compaction <> None then t.compaction
  else
    (* Every width is public: the root's from the keys of the unit's
       inputs, every other level's from its table's cardinality. *)
    let start level source ~inputs ~spill_pages ~keys:(lo, hi) =
      let id_widths =
        Array.init (Array.length t.levels) (fun i ->
            Codec.bits_for (if i = 0 then hi - lo else t.max_ids.(i - 1)))
      in
      let c =
        {
          c_level = level;
          c_builder =
            Log_run.start t.flash ~id_widths ~value_bytes:(t.record_bytes - t.id_bytes)
              ~level;
          c_source = source;
          c_input_runs = inputs;
          c_spill_pages = spill_pages;
          c_dropped = 0;
        }
      in
      t.compaction <- Some c;
      Some c
    in
    if spill_ready t then begin
      let pages = Append_log.full_pages t.l0 in
      let records =
        List.concat_map
          (fun page ->
             List.map
               (fun r ->
                  let b = Bytes.unsafe_of_string r in
                  (decode_ids t b 0, String.sub r t.id_bytes (t.record_bytes - t.id_bytes)))
               (Append_log.full_page_records t.l0 page))
          pages
      in
      let key (ids, _) = ids.(0) in
      let last = List.fold_left (fun _ r -> r) (List.hd records) records in
      start 1 (S_records records) ~inputs:[] ~spill_pages:(List.length pages)
        ~keys:(key (List.hd records), key last)
    end
    else
      match merge_level t with
      | None -> None
      | Some level ->
        let inputs = runs_at t level in
        let keys =
          List.fold_left
            (fun (lo, hi) r -> (min lo r.Log_run.min_key, max hi r.Log_run.max_key))
            (max_int, min_int) inputs
        in
        start (level + 1) (S_merge (Log_run.merge_start inputs)) ~inputs ~spill_pages:0
          ~keys

let pull t c =
  match c.c_source with
  | S_records [] -> None
  | S_records (r :: rest) ->
    c.c_source <- S_records rest;
    Some r
  | S_merge m -> Log_run.merge_next t.flash m

(* The installed run replaces its inputs atomically in the volatile
   state: the seal programs of its two streams are the run's commit
   point, and nothing here touches Flash, so there is no crash point
   between the two. *)
let install t c run_opt =
  let input_bytes =
    match c.c_input_runs with
    | [] ->
      (* spill: every input L0 page is a full page *)
      c.c_spill_pages * Append_log.records_per_page t.l0 * t.record_bytes
    | runs -> List.fold_left (fun a r -> a + Log_run.size_bytes r) 0 runs
  in
  (* the superseded inputs stay programmed until reorganization *)
  t.compacted_dead <- t.compacted_dead + input_bytes;
  Append_log.release t.l0 c.c_spill_pages;
  if c.c_input_runs <> [] then
    t.runs <- List.filter (fun r -> not (List.memq r c.c_input_runs)) t.runs;
  (match run_opt with
   | Some run ->
     t.runs <-
       List.sort
         (fun a b -> compare a.Log_run.min_key b.Log_run.min_key)
         (run :: t.runs)
   | None -> ());
  t.dropped <- t.dropped + c.c_dropped;
  t.compaction <- None;
  {
    inst_spill = c.c_spill_pages > 0;
    inst_level = c.c_level;
    inst_pages =
      (match run_opt with Some r -> Log_run.page_count r | None -> 0);
    inst_records = (match run_opt with Some r -> r.Log_run.count | None -> 0);
    inst_dropped = c.c_dropped;
  }

let compact_step ?(drop = fun _ -> false) t ~max_pages =
  if needs_recovery t then
    invalid_arg "Delta_log.compact_step: log needs recovery after a power cut";
  if max_pages < 1 then invalid_arg "Delta_log.compact_step: max_pages < 1";
  match start_compaction t with
  | None -> Idle
  | Some c ->
    let on_program page =
      Option.iter (fun cache -> Page_cache.invalidate cache ~page) t.cache
    in
    let programmed () = Log_run.programmed_pages c.c_builder in
    let budget = programmed () + max_pages in
    let exhausted = ref false in
    (try
       while (not !exhausted) && programmed () < budget do
         match pull t c with
         | None -> exhausted := true
         | Some (ids, values) ->
           if drop ids.(0) then c.c_dropped <- c.c_dropped + 1
           else Log_run.add ~on_program c.c_builder ~ids ~values
       done;
       if !exhausted then begin
         let run =
           if Log_run.built_count c.c_builder = 0 then None
           else Some (Log_run.seal ~on_program c.c_builder)
         in
         Installed (install t c run)
       end
       else Worked
     with Flash.Power_cut { page; _ } as e ->
       Append_log.note_power_cut t.l0 page;
       raise e)

type recovery = Append_log.recovery = {
  recovered : int;
  lost : int;
  torn_pages : int;
}

(* The L0 pages recover through {!Append_log.recover}. With leveled
   runs the protocol gains two phases in front: installed runs
   re-validate (their seal programs were their commit, so a pure power
   cut always rolls them forward), and an in-flight compaction build —
   never installed when the cut hit it, even if one stream's final page
   was sealed — is discarded wholesale, rolling the log back to its
   intact inputs. *)
let recover t =
  (* Roll an interrupted compaction back: its output was never installed,
     its inputs were never touched. The partial output pages are dead
     bytes until reorganization. *)
  (match t.compaction with
   | Some c ->
     t.compacted_dead <- t.compacted_dead + Log_run.programmed_bytes c.c_builder;
     t.compaction <- None
   | None -> ());
  (* Roll installed runs forward. An installed run only fails to
     validate under cell damage beyond the log's local recovery; its
     records are then lost (the fleet's anti-entropy repair is the
     recourse, as for structure pages). *)
  let runs_torn = ref 0 in
  let run_lost = ref 0 in
  t.runs <-
    List.filter
      (fun r ->
         if Log_run.validate t.flash r then true
         else begin
           incr runs_torn;
           run_lost := !run_lost + r.Log_run.count;
           false
         end)
      t.runs;
  let r = Append_log.recover t.l0 in
  {
    recovered = r.recovered - t.dropped - !run_lost;
    lost = r.lost + !run_lost;
    torn_pages = r.torn_pages + !runs_torn;
  }

let scan_range ?lo ?hi ?(values = true) ?(on_unpack = ignore) t f =
  let hidden vb voff = if values then decode_values t vb voff else [||] in
  let fields = Array.length t.levels in
  (* Runs first (they hold the oldest records), then L0: rows stream in
     ascending root-id order, the append order. The bounds skip run
     pages via their key fences, and an id-only scan reads no value
     page; L0 holds whole records and is always read in full (a
     compacted log bounds it by the spill threshold). *)
  List.iter
    (fun run ->
       Log_run.iter t.flash ?lo ?hi ~values run (fun ids vb voff ->
           on_unpack fields;
           f { ids; hidden = hidden vb voff }))
    t.runs;
  Append_log.iter_pages t.l0 (fun b n ->
      for i = 0 to n - 1 do
        let off = i * t.record_bytes in
        f { ids = decode_ids t b off; hidden = hidden b (off + t.id_bytes) }
      done)

let page_intact t ~page =
  match Append_log.page_intact t.l0 ~page with
  | Some ok -> Some ok
  | None -> List.find_map (fun run -> Log_run.page_intact t.flash run ~page) t.runs

let scan t f = scan_range t f

let check_values t row =
  if Array.length row.hidden <> Array.length t.hidden_cols then
    invalid_arg "Delta_log: the row comes from a scan that read no value"

let hidden_assoc t row =
  check_values t row;
  Array.to_list (Array.mapi (fun i (name, _) -> (name, row.hidden.(i))) t.hidden_cols)

let hidden_value t row col =
  check_values t row;
  let rec loop i =
    if i >= Array.length t.hidden_cols then raise Not_found
    else if fst t.hidden_cols.(i) = col then row.hidden.(i)
    else loop (i + 1)
  in
  loop 0
