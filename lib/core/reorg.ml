module Codec = Ghost_kernel.Codec
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Public_store = Ghost_public.Public_store
module Metrics = Ghost_metrics.Metrics

(* Journal record, one Flash page each:

     magic   u32   "GRJN"
     seq     u32   0, 1, 2, ... within one reorganization
     kind    u8    0 = begin, 1 = checkpoint, 2 = commit, 3 = abort
     phase   u32   begin: phase count; checkpoint: phase index;
                   commit / abort: phases completed
     digest  u32   checkpoint 0: CRC-32 of the marshalled snapshot
                   (validates reusing the in-memory rows on resume)
     name    string16
     crc     u32   CRC-32 of everything above

   The records live on the old device's main Flash among the live
   data; like the crash-safe log pages, a torn or corrupted record is
   detected by its checksum and truncates the journal there. *)

let magic = 0x47524A4E (* "GRJN" *)

type kind = Begin | Checkpoint | Commit | Abort

let kind_code = function Begin -> 0 | Checkpoint -> 1 | Commit -> 2 | Abort -> 3

let kind_of_code = function
  | 0 -> Some Begin
  | 1 -> Some Checkpoint
  | 2 -> Some Commit
  | 3 -> Some Abort
  | _ -> None

type record = {
  seq : int;
  kind : kind;
  phase : int;
  digest : int;
  name : string;
}

let encode_record r =
  let b = Buffer.create 64 in
  let hdr = Bytes.create 17 in
  Codec.put_u32 hdr 0 magic;
  Codec.put_u32 hdr 4 r.seq;
  Bytes.set hdr 8 (Char.chr (kind_code r.kind));
  Codec.put_u32 hdr 9 r.phase;
  Codec.put_u32 hdr 13 r.digest;
  Buffer.add_bytes b hdr;
  Codec.put_string16 b r.name;
  let body = Buffer.to_bytes b in
  let len = Bytes.length body in
  let out = Bytes.create (len + 4) in
  Bytes.blit body 0 out 0 len;
  Codec.put_u32 out len (Codec.crc32 body ~pos:0 ~len);
  out

let decode_record page_bytes =
  try
    if Codec.get_u32 page_bytes 0 <> magic then None
    else begin
      let seq = Codec.get_u32 page_bytes 4 in
      match kind_of_code (Char.code (Bytes.get page_bytes 8)) with
      | None -> None
      | Some kind ->
        let phase = Codec.get_u32 page_bytes 9 in
        let digest = Codec.get_u32 page_bytes 13 in
        let name, off = Codec.get_string16 page_bytes 17 in
        if off + 4 > Bytes.length page_bytes then None
        else if
          Codec.get_u32 page_bytes off <> Codec.crc32 page_bytes ~pos:0 ~len:off
        then None
        else Some { seq; kind; phase; digest; name }
    end
  with Invalid_argument _ -> None

(* Phases, in execution order. Table phases follow {!Loader.table_names}
   order (= {!Schema.tables} order), so a resumed build issues the same
   programs the uninterrupted build would. *)
type phase = Snapshot | Skts | Table of string

let phase_name = function
  | Snapshot -> "snapshot"
  | Skts -> "skts"
  | Table t -> "table:" ^ t

type progress = {
  old_catalog : Catalog.t;
  old_public : Public_store.t;
  phases : phase array;
  (* Journal state (validated against Flash by {!revalidate}). *)
  mutable seq : int;  (* next record sequence number *)
  mutable pages : int list;  (* journal pages, append order *)
  mutable done_ : int;  (* phases 0 .. done_-1 durably checkpointed *)
  mutable committed : bool;
  mutable aborted : bool;
  (* Phase outputs — volatile hints, truncated by {!revalidate}. *)
  mutable snapshot_rows : (string * Relation.tuple list) list option;
  mutable prep : Loader.prepared option;
  mutable new_trace : Trace.t option;
  mutable skts : (string * Ghost_store.Skt.t) list;
  mutable entries : (string * Catalog.table_entry) list;  (* phase order *)
  (* Resume accounting. *)
  mutable started : int;  (* highest phase index ever entered + 1 *)
  mutable prev_started : int;  (* [started] as of the last crash *)
  mutable reused : int;
  mutable redone : int;
  mutable crashed : bool;
}

let old_device p = p.old_catalog.Catalog.device
let old_flash p = Device.flash (old_device p)

let create catalog public =
  let tables =
    List.map
      (fun (tbl : Schema.table) -> Table tbl.Schema.name)
      (Schema.tables catalog.Catalog.schema)
  in
  {
    old_catalog = catalog;
    old_public = public;
    phases = Array.of_list (Snapshot :: Skts :: tables);
    seq = 0;
    pages = [];
    done_ = 0;
    committed = false;
    aborted = false;
    snapshot_rows = None;
    prep = None;
    new_trace = None;
    skts = [];
    entries = [];
    started = 0;
    prev_started = 0;
    reused = 0;
    redone = 0;
    crashed = false;
  }

let phase_count p = Array.length p.phases
let phases_reused p = p.reused
let phases_redone p = p.redone
let journal_pages p = List.length p.pages

let append_record p ~kind ~phase ~digest ~name =
  let bytes = encode_record { seq = p.seq; kind; phase; digest; name } in
  (* A power cut here tears the record: it is never added to the page
     hints, and its checksum would fail revalidation anyway. *)
  let page = Flash.append (old_flash p) bytes in
  p.seq <- p.seq + 1;
  p.pages <- p.pages @ [ page ]

let digest_rows rows =
  let s =
    Marshal.to_string (rows : (string * Relation.tuple list) list)
      [ Marshal.No_sharing ]
  in
  Codec.crc32 (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let checkpoint p i ~digest =
  append_record p ~kind:Checkpoint ~phase:i ~digest
    ~name:(phase_name p.phases.(i));
  p.done_ <- i + 1;
  Device.note (old_device p) Device.Reorg_checkpoints;
  Device.emit_reorg_progress (old_device p) ~phase:(i + 1)
    ~phases:(phase_count p)

let ensure_prep p =
  match p.prep with
  | Some prep -> prep
  | None ->
    let rows =
      match p.snapshot_rows with
      | Some rows -> rows
      | None -> invalid_arg "Reorg: prepare before snapshot"
    in
    let trace = Trace.create () in
    let prep =
      Loader.prepare
        ~device_config:(Device.config (old_device p))
        ~trace p.old_catalog.Catalog.schema rows
    in
    (* One physical power supply: a cut armed on the old device counts
       the shadow build's programs too. Must happen before the first
       build program — [Loader.prepare] issues none. *)
    Flash.share_power (Device.flash (Loader.device prep)) ~with_:(old_flash p);
    Flash.share_power (Device.scratch (Loader.device prep)) ~with_:(old_flash p);
    p.prep <- Some prep;
    p.new_trace <- Some trace;
    prep

let run_phase p i =
  if i < p.prev_started then p.redone <- p.redone + 1;
  p.started <- max p.started (i + 1);
  let m = Device.metrics (old_device p) in
  let ts =
    match m with None -> 0. | Some _ -> Device.elapsed_us (old_device p)
  in
  (match p.phases.(i) with
   | Snapshot ->
     (* Redoing the snapshot invalidates everything derived from an
        older one. *)
     p.prep <- None;
     p.new_trace <- None;
     p.skts <- [];
     p.entries <- [];
     let rows = Reorganize.snapshot p.old_catalog p.old_public in
     p.snapshot_rows <- Some rows;
     checkpoint p i ~digest:(digest_rows rows)
   | Skts ->
     p.skts <- Loader.build_skts (ensure_prep p);
     checkpoint p i ~digest:0
   | Table name ->
     let entry = Loader.build_entry (ensure_prep p) name in
     (* Replace a stale copy left by a torn checkpoint of this very
        phase, keeping phase order. *)
     p.entries <- List.filter (fun (n, _) -> n <> name) p.entries @ [ entry ];
     checkpoint p i ~digest:0);
  match m with
  | None -> ()
  | Some reg ->
    (* Phase spans run on the old card's global clock: the shadow
       build's programs share its power line and its timeline. *)
    let dur = Device.elapsed_us (old_device p) -. ts in
    Metrics.incr reg "reorg.phases";
    Metrics.observe reg "reorg.phase.us" dur;
    Metrics.span reg
      ~name:("reorg:" ^ phase_name p.phases.(i))
      ~cat:"reorg" ~pid:1 ~tid:0 ~ts ~dur ()

let advance p =
  if p.aborted then invalid_arg "Reorg.advance: aborted reorganization";
  if p.seq = 0 then
    append_record p ~kind:Begin ~phase:(phase_count p) ~digest:0 ~name:"begin";
  for i = p.done_ to phase_count p - 1 do
    run_phase p i
  done;
  if not p.committed then begin
    append_record p ~kind:Commit ~phase:p.done_ ~digest:0 ~name:"commit";
    p.committed <- true
  end;
  (* Everything past the commit record is deterministic host-side
     assembly: no further programs, so a power cut cannot land here. *)
  let prep = ensure_prep p in
  let catalog, public = Loader.assemble prep ~skts:p.skts ~entries:p.entries in
  (* The old device (and its Flash content) is being abandoned: drop
     every resident frame so nothing stale can be served if the caller
     keeps using the old handle. The new device builds its own cache. *)
  Option.iter Ghost_device.Page_cache.clear (Device.page_cache (old_device p));
  (catalog, public, Option.get p.new_trace)

let note_crash p = p.crashed <- true

let phase_index p name =
  let rec find i =
    if i >= phase_count p then max_int
    else if phase_name p.phases.(i) = name then i
    else find (i + 1)
  in
  find 0

let revalidate p =
  let flash = old_flash p in
  (* Longest checksum-valid, sequence-continuous record prefix — the
     page hints are volatile; only what reads back intact counts. *)
  let rec scan pages seq acc =
    match pages with
    | [] -> List.rev acc
    | pg :: rest ->
      (match decode_record (Flash.read_page flash pg) with
       | Some r when r.seq = seq && (seq > 0 || r.kind = Begin) ->
         scan rest (seq + 1) ((pg, r) :: acc)
       | Some _ | None -> List.rev acc)
  in
  let valid = scan p.pages 0 [] in
  p.pages <- List.map fst valid;
  p.seq <- List.length valid;
  let records = List.map snd valid in
  p.committed <- List.exists (fun r -> r.kind = Commit) records;
  p.aborted <- List.exists (fun r -> r.kind = Abort) records;
  let checkpoint_of i =
    List.find_opt (fun r -> r.kind = Checkpoint && r.phase = i) records
  in
  let rec durable i = if checkpoint_of i = None then i else durable (i + 1) in
  let done_ = durable 0 in
  (* Rolling forward reuses the in-memory snapshot; it is only a hint,
     so it must match the digest its checkpoint record committed to. *)
  let done_ =
    if done_ = 0 then 0
    else
      match p.snapshot_rows, checkpoint_of 0 with
      | Some rows, Some r when digest_rows rows = r.digest -> done_
      | _ -> 0
  in
  if done_ = 0 then begin
    p.snapshot_rows <- None;
    p.prep <- None;
    p.new_trace <- None
  end;
  if done_ < phase_index p "skts" + 1 then p.skts <- [];
  p.entries <-
    List.filter (fun (n, _) -> phase_index p ("table:" ^ n) < done_) p.entries;
  p.done_ <- done_;
  p.reused <- done_;
  p.redone <- 0;
  p.prev_started <- p.started;
  p.crashed <- false

let can_roll_forward p =
  (not p.aborted) && p.done_ >= 1 && p.snapshot_rows <> None

let abort p =
  append_record p ~kind:Abort ~phase:p.done_ ~digest:0 ~name:"abort";
  p.aborted <- true
