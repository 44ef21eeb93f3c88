module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Page_cache = Ghost_device.Page_cache
module Log_run = Ghost_store.Log_run

type durability =
  | Plain
  | Checksummed

(* Checksummed page header: magic (u32) | first_seq (u64) | count (u32)
   | crc32 (u32) over the rest of the header and the payload. *)
let magic = 0x47444C54  (* "GDLT" *)
let header_bytes = 20

type runs_policy = {
  l0_spill_pages : int;
  run_fanout : int;
}

(* A resumable compaction unit: one output run being built from either
   the current L0 prefix (a spill) or every run of one level (a
   merge). All fields are plain data — no closures — so an in-flight
   compaction survives a marshalled device image. *)
type source =
  | S_records of string list  (* spill: decoded L0 records, key order *)
  | S_merge of Log_run.merge

type compaction = {
  c_level : int;  (* output run level *)
  c_builder : Log_run.builder;
  mutable c_source : source;
  c_input_runs : Log_run.t list;  (* runs consumed on install (merge) *)
  c_input_pages : int list;  (* L0 pages consumed on install (spill) *)
  c_logical : int;  (* logical records the inputs carry (spill) *)
  mutable c_dropped : int;  (* tombstoned records folded away so far *)
}

type t = {
  flash : Flash.t;
  table : string;
  levels : string array;
  hidden_cols : (string * Value.ty) array;
  record_bytes : int;
  records_per_page : int;
  durability : durability;
  cache : Page_cache.t option;
      (* the device's page cache, invalidated when an append programs a
         recycled Flash page the cache may still hold *)
  runs_policy : runs_policy option;
  mutable runs : Log_run.t list;  (* ascending min_key = chronological *)
  mutable spilled_seq : int;  (* logical records folded out of L0 *)
  mutable dropped : int;  (* tombstoned records compaction dropped *)
  mutable compaction : compaction option;  (* in-flight output run *)
  mutable full_pages : int list;  (* reversed *)
  mutable tail : string list;  (* encoded records of the tail page, reversed *)
  mutable tail_page : int option;  (* current (latest) program of the tail *)
  mutable stale_tails : int list;  (* superseded tail programs, newest first *)
  mutable count : int;
  mutable dead_bytes : int;  (* superseded tail programs *)
  mutable needs_recovery : bool;  (* a program was torn by a power cut *)
  mutable torn_page : int option;  (* the page that tore, if known *)
}

let create ?(durability = Plain) ?cache ?runs flash ~table ~levels ~hidden_cols =
  let record_bytes =
    (4 * List.length levels)
    + List.fold_left (fun acc (_, ty) -> acc + Value.ty_width ty) 0 hidden_cols
  in
  let page = (Flash.geometry flash).Flash.page_size in
  let usable =
    match durability with
    | Plain -> page
    | Checksummed -> page - header_bytes
  in
  if record_bytes > usable then invalid_arg "Delta_log.create: record exceeds a page";
  (match runs with
   | Some p ->
     if p.l0_spill_pages < 1 || p.run_fanout < 2 then
       invalid_arg "Delta_log.create: spill threshold < 1 or fanout < 2";
     if Log_run.records_per_page flash ~record_bytes < 1 then
       invalid_arg "Delta_log.create: record exceeds a run page"
   | None -> ());
  {
    flash;
    table;
    levels = Array.of_list levels;
    hidden_cols = Array.of_list hidden_cols;
    record_bytes;
    records_per_page = usable / record_bytes;
    durability;
    cache;
    runs_policy = runs;
    runs = [];
    spilled_seq = 0;
    dropped = 0;
    compaction = None;
    full_pages = [];
    tail = [];
    tail_page = None;
    stale_tails = [];
    count = 0;
    dead_bytes = 0;
    needs_recovery = false;
    torn_page = None;
  }

let table t = t.table
let count t = t.count
let record_bytes t = t.record_bytes
let durability t = t.durability
let needs_recovery t = t.needs_recovery

let dead_bytes t = t.dead_bytes

let runs_enabled t = t.runs_policy <> None
let has_runs t = t.runs <> []
let run_count t = List.length t.runs
let run_pages t = List.fold_left (fun a r -> a + Log_run.page_count r) 0 t.runs

let l0_pages t =
  List.length t.full_pages + (match t.tail_page with Some _ -> 1 | None -> 0)

(* Records a sequential scan touches: the logical count minus what
   compaction folded away. Equal to [count] on a flat log. *)
let physical_records t = t.count - t.dropped
let dropped_records t = t.dropped

let size_bytes t =
  (List.length t.full_pages * t.records_per_page * t.record_bytes)
  + (List.length t.tail * t.record_bytes)
  + List.fold_left
      (fun a r -> a + Log_run.size_bytes r ~record_bytes:t.record_bytes)
      0 t.runs

let payload_off t =
  match t.durability with Plain -> 0 | Checksummed -> header_bytes

let encode t ~ids ~hidden =
  if Array.length ids <> Array.length t.levels then
    invalid_arg "Delta_log.append: id vector misaligned with levels";
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

(* The bytes of one page image holding [records] (oldest first), whose
   first record carries sequence number [first_seq]. *)
let build_page t ~first_seq records =
  let payload = String.concat "" records in
  match t.durability with
  | Plain -> Bytes.of_string payload
  | Checksummed ->
    let b = Bytes.create (header_bytes + String.length payload) in
    Codec.put_u32 b 0 magic;
    Codec.put_u64 b 4 first_seq;
    Codec.put_u32 b 12 (List.length records);
    Bytes.blit_string payload 0 b header_bytes (String.length payload);
    let crc =
      Codec.crc32 b ~pos:0 ~len:16
      |> fun crc ->
      Codec.crc32 ~crc b ~pos:header_bytes ~len:(String.length payload)
    in
    Codec.put_u32 b 16 crc;
    b

(* Reads a checksummed page back and validates it: magic, plausible
   record count, checksum over header + payload. Returns the first
   sequence number and the decoded record payloads, oldest first. *)
let parse_page t page =
  match Flash.read_page t.flash page with
  | exception Invalid_argument _ -> None  (* erased (e.g. a zero-byte tear) *)
  | b ->
    if Codec.get_u32 b 0 <> magic then None
    else begin
      let first_seq = Codec.get_u64 b 4 in
      let n = Codec.get_u32 b 12 in
      let stored_crc = Codec.get_u32 b 16 in
      if n < 1 || n > t.records_per_page then None
      else begin
        let crc =
          Codec.crc32 b ~pos:0 ~len:16
          |> fun crc -> Codec.crc32 ~crc b ~pos:header_bytes ~len:(n * t.record_bytes)
        in
        if crc <> stored_crc then None
        else begin
          let records =
            List.init n (fun i ->
                Bytes.sub_string b (header_bytes + (i * t.record_bytes)) t.record_bytes)
          in
          Some (first_seq, records)
        end
      end
    end

let append t ~ids ~hidden =
  if t.needs_recovery then
    invalid_arg "Delta_log.append: log needs recovery after a power cut";
  let record = encode t ~ids ~hidden in
  t.tail <- record :: t.tail;
  t.count <- t.count + 1;
  (* Program the tail as a fresh page (no in-place writes); the
     previous tail program becomes dead space until reorganization. *)
  (match t.tail_page with
   | Some _ -> t.dead_bytes <- t.dead_bytes + ((List.length t.tail - 1) * t.record_bytes)
   | None -> ());
  let first_seq =
    t.spilled_seq + (t.records_per_page * List.length t.full_pages)
  in
  let data = build_page t ~first_seq (List.rev t.tail) in
  match Flash.append t.flash data with
  | page ->
    (* The append may have recycled an erased page whose old content is
       still resident in the shared cache. *)
    Option.iter (fun c -> Page_cache.invalidate c ~page) t.cache;
    (match t.tail_page with
     | Some old -> t.stale_tails <- old :: t.stale_tails
     | None -> ());
    if List.length t.tail = t.records_per_page then begin
      t.full_pages <- page :: t.full_pages;
      t.tail <- [];
      t.tail_page <- None
    end
    else t.tail_page <- Some page
  | exception (Flash.Power_cut { page; _ } as e) ->
    t.needs_recovery <- true;
    t.torn_page <- Some page;
    raise e

(* ---- leveled compaction (runs mode) ---- *)

(* Decode the raw records of one L0 page, oldest (= smallest key)
   first. Metered like {!scan}. *)
let l0_page_records t page =
  let b =
    Flash.read t.flash ~page ~off:(payload_off t)
      ~len:(t.records_per_page * t.record_bytes)
  in
  List.init t.records_per_page (fun i ->
      Bytes.sub_string b (i * t.record_bytes) t.record_bytes)

(* Runs at [level], oldest first (the runs list is chronological). *)
let runs_at t level = List.filter (fun r -> r.Log_run.level = level) t.runs

let spill_ready t =
  match t.runs_policy with
  | None -> false
  | Some p -> List.length t.full_pages >= p.l0_spill_pages

let merge_level t =
  match t.runs_policy with
  | None -> None
  | Some p ->
    let rec probe level =
      match runs_at t level with
      | [] -> None
      | rs when List.length rs >= p.run_fanout -> Some level
      | _ -> probe (level + 1)
    in
    probe 1

let compaction_pending t =
  (not t.needs_recovery)
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
  match t.runs_policy with
  | None -> None
  | Some _ when t.compaction <> None -> t.compaction
  | Some _ ->
    if spill_ready t then begin
      let pages = List.rev t.full_pages in
      let records = List.concat_map (l0_page_records t) pages in
      let c =
        {
          c_level = 1;
          c_builder = Log_run.start t.flash ~record_bytes:t.record_bytes ~level:1;
          c_source = S_records records;
          c_input_runs = [];
          c_input_pages = pages;
          c_logical = List.length records;
          c_dropped = 0;
        }
      in
      t.compaction <- Some c;
      Some c
    end
    else
      match merge_level t with
      | None -> None
      | Some level ->
        let inputs = runs_at t level in
        let c =
          {
            c_level = level + 1;
            c_builder =
              Log_run.start t.flash ~record_bytes:t.record_bytes ~level:(level + 1);
            c_source = S_merge (Log_run.merge_start inputs);
            c_input_runs = inputs;
            c_input_pages = [];
            c_logical = 0;
            c_dropped = 0;
          }
        in
        t.compaction <- Some c;
        Some c

let pull t c =
  match c.c_source with
  | S_records [] -> None
  | S_records (r :: rest) ->
    c.c_source <- S_records rest;
    Some r
  | S_merge m -> Log_run.merge_next t.flash ~record_bytes:t.record_bytes m

(* The installed run replaces its inputs atomically in the volatile
   state: the seal program is the run's commit point, and nothing here
   touches Flash, so there is no crash point between the two. *)
let install t c run_opt =
  let input_records =
    match c.c_input_runs with
    | [] ->
      (* spill: every input L0 page is a full page *)
      List.length c.c_input_pages * t.records_per_page
    | runs -> List.fold_left (fun a r -> a + r.Log_run.count) 0 runs
  in
  (* the superseded inputs stay programmed until reorganization *)
  t.dead_bytes <- t.dead_bytes + (input_records * t.record_bytes);
  if c.c_input_pages <> [] then begin
    t.full_pages <-
      List.filter (fun p -> not (List.mem p c.c_input_pages)) t.full_pages;
    t.spilled_seq <- t.spilled_seq + c.c_logical
  end;
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
    inst_spill = c.c_input_pages <> [];
    inst_level = c.c_level;
    inst_pages =
      (match run_opt with Some r -> Log_run.page_count r | None -> 0);
    inst_records = (match run_opt with Some r -> r.Log_run.count | None -> 0);
    inst_dropped = c.c_dropped;
  }

let compact_step ?(drop = fun _ -> false) t ~max_pages =
  if t.needs_recovery then
    invalid_arg "Delta_log.compact_step: log needs recovery after a power cut";
  if max_pages < 1 then invalid_arg "Delta_log.compact_step: max_pages < 1";
  match start_compaction t with
  | None -> Idle
  | Some c ->
    let on_program page =
      Option.iter (fun cache -> Page_cache.invalidate cache ~page) t.cache
    in
    let programmed () = List.length (Log_run.built_pages c.c_builder) in
    let budget = programmed () + max_pages in
    let exhausted = ref false in
    (try
       while (not !exhausted) && programmed () < budget do
         match pull t c with
         | None -> exhausted := true
         | Some record ->
           if drop (Log_run.key record) then c.c_dropped <- c.c_dropped + 1
           else Log_run.add ~on_program c.c_builder record
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
       t.needs_recovery <- true;
       t.torn_page <- Some page;
       raise e)

type recovery = {
  recovered : int;
  lost : int;
  torn_pages : int;
}

(* After a power cut the volatile log state is untrusted: re-scan the
   on-flash pages, keep the longest checksum-valid, sequence-continuous
   prefix, and truncate the in-memory state to it. The record torn
   mid-program (never acknowledged to the caller) is dropped; its
   superseded predecessor page, still programmed, carries the durable
   tail.

   With leveled runs the protocol gains two phases in front: installed
   runs re-validate (their seal program was their commit, so a pure
   power cut always rolls them forward), and an in-flight compaction
   build — unsealed by construction when the cut hit it — is discarded
   wholesale, rolling the log back to its intact inputs. *)
let recover t =
  (match t.durability with
   | Checksummed -> ()
   | Plain ->
     invalid_arg
       "Delta_log.recover: log is not checksummed (create ~durability:Checksummed)");
  let torn = ref (match t.torn_page with Some _ -> 1 | None -> 0) in
  let old_count = t.count in
  let run_lost = ref 0 in
  (* Roll an interrupted compaction back: its output was never sealed,
     its inputs were never touched. The partial output pages are dead
     bytes until reorganization. *)
  (match t.compaction with
   | Some c ->
     t.dead_bytes <-
       t.dead_bytes
       + (Log_run.programmed_records c.c_builder * t.record_bytes);
     t.compaction <- None
   | None -> ());
  (* Roll installed runs forward. An installed run only fails to
     validate under cell damage beyond the log's local recovery; its
     records are then lost (the fleet's anti-entropy repair is the
     recourse, as for structure pages). *)
  t.runs <-
    List.filter
      (fun r ->
         if Log_run.validate t.flash ~record_bytes:t.record_bytes r then true
         else begin
           incr torn;
           run_lost := !run_lost + r.Log_run.count;
           false
         end)
      t.runs;
  (* Longest valid prefix of the full pages, continuing the spilled
     sequence. *)
  let rec verify_full acc n = function
    | [] -> (acc, n, true)
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records)
         when first_seq = t.spilled_seq + (n * t.records_per_page)
              && List.length records = t.records_per_page ->
         verify_full (p :: acc) (n + 1) rest
       | _ ->
         incr torn;
         (acc, n, false))
  in
  let full_rev, n_full, full_intact = verify_full [] 0 (List.rev t.full_pages) in
  let expected_seq = t.spilled_seq + (n_full * t.records_per_page) in
  (* Newest tail program whose sequence continues the full prefix. A
     corrupted full page invalidates everything after it, tail
     included. *)
  let candidates =
    if not full_intact then []
    else (match t.tail_page with Some p -> [ p ] | None -> []) @ t.stale_tails
  in
  let rec pick = function
    | [] -> (None, [])
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records) when first_seq = expected_seq ->
         (Some (p, records), rest)
       | _ ->
         incr torn;
         pick rest)
  in
  let tail_winner, older = pick candidates in
  (match tail_winner with
   | Some (page, records) ->
     t.tail <- List.rev records;
     t.tail_page <- Some page;
     t.stale_tails <- older;
     t.count <- expected_seq + List.length records
   | None ->
     t.tail <- [];
     t.tail_page <- None;
     t.stale_tails <- [];
     t.count <- expected_seq);
  t.full_pages <- full_rev;
  t.needs_recovery <- false;
  t.torn_page <- None;
  {
    recovered = t.count - t.dropped - !run_lost;
    lost = (old_count - t.count) + !run_lost;
    torn_pages = !torn;
  }

type row = {
  ids : int array;
  hidden : Value.t array;
}

let decode t b off =
  let n_levels = Array.length t.levels in
  let ids = Array.init n_levels (fun i -> Codec.get_u32 b (off + (4 * i))) in
  let pos = ref (off + (4 * n_levels)) in
  let hidden =
    Array.map
      (fun (_, ty) ->
         let v = Value.decode ty b !pos in
         pos := !pos + Value.ty_width ty;
         v)
      t.hidden_cols
  in
  { ids; hidden }

let scan_range ?lo ?hi t f =
  (* Runs first (they hold the oldest records), then L0: rows stream in
     ascending root-id order just like the flat log's append order. The
     bounds skip run pages via their key fences; the L0 prefix is
     bounded by the spill threshold and is always read in full, as is
     the whole log when runs are off (the seed path, bit-identical). *)
  List.iter
    (fun run ->
       Log_run.iter t.flash ~record_bytes:t.record_bytes ?lo ?hi run
         (fun record -> f (decode t (Bytes.unsafe_of_string record) 0)))
    t.runs;
  let off = payload_off t in
  let read_page page n_records =
    let b = Flash.read t.flash ~page ~off ~len:(n_records * t.record_bytes) in
    for i = 0 to n_records - 1 do
      f (decode t b (i * t.record_bytes))
    done
  in
  List.iter
    (fun page -> read_page page t.records_per_page)
    (List.rev t.full_pages);
  match t.tail_page with
  | Some page -> read_page page (List.length t.tail)
  | None -> ()

let scan t f = scan_range t f

let hidden_assoc t row =
  Array.to_list (Array.mapi (fun i (name, _) -> (name, row.hidden.(i))) t.hidden_cols)

let hidden_value t row col =
  let rec loop i =
    if i >= Array.length t.hidden_cols then raise Not_found
    else if fst t.hidden_cols.(i) = col then row.hidden.(i)
    else loop (i + 1)
  in
  loop 0
