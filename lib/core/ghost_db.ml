module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Parser = Ghost_sql.Parser
module Bind = Ghost_sql.Bind
module Public_store = Ghost_public.Public_store
module Spy = Ghost_public.Spy

type t = {
  catalog : Catalog.t;
  public : Public_store.t;
  trace : Trace.t;
  mutable reorg : Reorg.progress option;
      (* an interrupted journaled reorganization awaiting recovery *)
}

let of_schema ?device_config ?index_hidden_fks schema rows =
  let trace = Trace.create () in
  let catalog, public =
    Loader.load ?device_config ?index_hidden_fks ~trace schema rows
  in
  { catalog; public; trace; reorg = None }

let create ?device_config ?index_hidden_fks ~ddl rows =
  let schema = Bind.ddl_to_schema (Parser.parse_ddl ddl) in
  of_schema ?device_config ?index_hidden_fks schema rows

let schema t = t.catalog.Catalog.schema
let catalog t = t.catalog
let public t = t.public
let device t = t.catalog.Catalog.device
let trace t = t.trace

let set_metrics t m = Device.set_metrics (device t) m
let metrics t = Device.metrics (device t)
let flush_metrics t = Device.flush_metrics (device t)

(* A rebuilt instance keeps reporting into the same registry: attaching
   rebases the registry past the old card's timeline, so profiles from
   before and after a reorganization stack on one trace. *)
let adopt_metrics ~from db =
  (match Device.metrics (device from) with
   | Some m -> Device.set_metrics (device db) (Some m)
   | None -> ());
  db

let bind t sql = Bind.bind (schema t) sql

let check_no_reorg t op =
  if t.reorg <> None then
    failwith
      (Printf.sprintf
         "Ghost_db.%s: a reorganization was interrupted by a power cut; run \
          recover first"
         op)

let insert t rows =
  check_no_reorg t "insert";
  Insert.insert_root t.catalog t.public rows

let delete t ids =
  check_no_reorg t "delete";
  Insert.delete_root t.catalog t.public ids

let root_name t =
  (Ghost_relation.Schema.root t.catalog.Catalog.schema).Ghost_relation.Schema.name

let delta_count t = Catalog.delta_count t.catalog (root_name t)
let tombstone_count t = Catalog.tombstone_count t.catalog (root_name t)

type reorg_outcome =
  | Reorg_completed of { db : t; phases_reused : int; phases_redone : int }
  | Reorg_rolled_back of { journal_records : int }

type recovery_report = {
  delta_recovered : int;
  delta_lost : int;
  tombstones_recovered : int;
  tombstones_lost : int;
  delta_torn_pages : int;
  tombstone_torn_pages : int;
  reorg : reorg_outcome option;
}

let needs_recovery (t : t) =
  t.reorg <> None
  || (match Catalog.delta t.catalog (root_name t) with
      | Some log -> Delta_log.needs_recovery log
      | None -> false)
  || (match Catalog.tombstone t.catalog (root_name t) with
      | Some log -> Tombstone_log.needs_recovery log
      | None -> false)

let reorganize t =
  check_no_reorg t "reorganize";
  (* Refuse before the journal's first record if a log still needs
     recovery (as {!Reorg.snapshot} would), so no Begin record is
     wasted on a doomed build. *)
  if needs_recovery t then
    failwith
      "Ghost_db.reorganize: logs need recovery after a power cut; run \
       recover first";
  let p = Reorg.create t.catalog t.public in
  t.reorg <- Some p;
  match Reorg.advance p with
  | catalog, public, trace ->
    t.reorg <- None;
    adopt_metrics ~from:t { catalog; public; trace; reorg = None }
  | exception (Flash.Power_cut _ as e) ->
    Reorg.note_crash p;
    raise e

let recover_reorg (t : t) =
  match t.reorg with
  | None -> None
  | Some p ->
    let device = t.catalog.Catalog.device in
    Reorg.revalidate p;
    if Reorg.can_roll_forward p then begin
      match Reorg.advance p with
      | catalog, public, trace ->
        t.reorg <- None;
        Device.note device Device.Reorg_rollforwards;
        Some
          (Reorg_completed
             {
               db = adopt_metrics ~from:t { catalog; public; trace; reorg = None };
               phases_reused = Reorg.phases_reused p;
               phases_redone = Reorg.phases_redone p;
             })
      | exception (Flash.Power_cut _ as e) ->
        (* Crashed again mid-resume: the progress stays pending; the
           next recover revalidates and picks up from here. *)
        Reorg.note_crash p;
        raise e
    end
    else begin
      match Reorg.abort p with
      | () ->
        t.reorg <- None;
        Device.note device Device.Reorg_rollbacks;
        Some (Reorg_rolled_back { journal_records = Reorg.journal_pages p })
      | exception (Flash.Power_cut _ as e) ->
        Reorg.note_crash p;
        raise e
    end

let recover t =
  let root = root_name t in
  let device = t.catalog.Catalog.device in
  let dr, dl, dt =
    match Catalog.delta t.catalog root with
    | Some log when Delta_log.needs_recovery log ->
      let r = Delta_log.recover log in
      (r.Delta_log.recovered, r.Delta_log.lost, r.Delta_log.torn_pages)
    | _ -> (0, 0, 0)
  in
  let tr, tl, tt =
    match Catalog.tombstone t.catalog root with
    | Some log when Tombstone_log.needs_recovery log ->
      let r = Tombstone_log.recover log in
      (r.Tombstone_log.recovered, r.Tombstone_log.lost, r.Tombstone_log.torn_pages)
    | _ -> (0, 0, 0)
  in
  Device.note device ~by:(dr + tr) Device.Records_recovered;
  Device.note device ~by:(dl + tl) Device.Records_lost;
  let reorg = recover_reorg t in
  {
    delta_recovered = dr;
    delta_lost = dl;
    tombstones_recovered = tr;
    tombstones_lost = tl;
    delta_torn_pages = dt;
    tombstone_torn_pages = tt;
    reorg;
  }

let compact t =
  check_no_reorg t "compact";
  if needs_recovery t then
    failwith
      "Ghost_db.compact: logs need recovery after a power cut; run recover first";
  Compaction.run_pending (Compaction.create t.catalog)

let compaction_pending t =
  match Catalog.delta t.catalog (root_name t) with
  | Some log -> Delta_log.compaction_pending log
  | None -> false

let plans t sql = Planner.with_estimates t.catalog (bind t sql)

let query t ?(oblivious = false) sql =
  let q = bind t sql in
  let plan, est =
    if oblivious then begin
      (* One fixed-shape plan per query: strategy choice is itself a
         function of the hidden data's statistics, so the oblivious
         path never consults the cost-based panel. *)
      let p = Planner.oblivious t.catalog q in
      (p, Cost.estimate t.catalog p)
    end
    else Planner.best t.catalog q
  in
  let r = Exec.run t.catalog t.public plan in
  (* Serial queries are calibration ground truth too: the planner's
     estimate for the chosen plan against the measured device time. *)
  (match Device.metrics (device t) with
   | None -> ()
   | Some reg ->
     Ghost_metrics.Metrics.calibrate reg ~cls:plan.Plan.label
       ~predicted_us:est.Cost.est_time_us ~measured_us:r.Exec.elapsed_us);
  r

let run_plan t ?exact_post ?bloom_fpr plan =
  Exec.run ?exact_post ?bloom_fpr t.catalog t.public plan

let spy_report t = Spy.analyze t.trace

let access_profile t ~fixed_shape =
  {
    Privacy.fixed_shape;
    page_bound = List.length (Catalog.structure_pages t.catalog);
  }

let audit ?access t = Privacy.audit ?access t.trace
let clear_trace t = Trace.clear t.trace
let storage t = Catalog.storage t.catalog

exception Image_error of string

(* Bumped to 4 when the image gained its length header and CRC-32
   trailer (and the instance its reorg field); to 5 when the device
   config gained its wire-format field and the device its wire
   encoder; to 6 when the config gained verify_pages and the Flash
   regions their authentication flag and latent-corruption table; to 7
   when trace events gained their oblivious leakage annotation; to 8
   when the delta log gained its leveled runs; to 9 when both logs
   moved onto a shared append log; to 10 when the device's counters
   became one table; to 11 when the append log gained its count of
   acknowledged records; to 12 when a log run split into id and value
   page streams; to 13 when run id pages became bit-packed and the
   delta log gained its largest ids; to 14 when every log page became
   sealed and the log lost its format field; to 15 when the USB fault
   config lost its backoff jitter and the device its jitter stream:
   older marshalled images are incompatible. *)
let image_magic = "GHOSTDB-IMAGE-16\n"

(* Image layout: magic | u64 payload length | payload (marshalled
   instance) | u32 CRC-32 of the payload. Written to [<path>.tmp] and
   renamed into place, so a crash mid-save leaves the previous image
   (or no file) — never a partial one. *)

let save_image t path =
  check_no_reorg t "save_image";
  let payload = Marshal.to_string (t : t) [] in
  let len = String.length payload in
  let crc = Codec.crc32 (Bytes.unsafe_of_string payload) ~pos:0 ~len in
  let tmp = path ^ ".tmp" in
  let oc =
    try open_out_bin tmp with Sys_error msg -> raise (Image_error msg)
  in
  (try
     output_string oc image_magic;
     let hdr = Bytes.create 8 in
     Codec.put_u64 hdr 0 len;
     output_bytes oc hdr;
     output_string oc payload;
     let tail = Bytes.create 4 in
     Codec.put_u32 tail 0 crc;
     output_bytes oc tail;
     close_out oc
   with e ->
     close_out_noerr oc;
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  try Sys.rename tmp path
  with Sys_error msg ->
    (try Sys.remove tmp with Sys_error _ -> ());
    raise (Image_error msg)

let load_image path =
  let ic =
    try open_in_bin path with Sys_error msg -> raise (Image_error msg)
  in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
  let magic =
    try really_input_string ic (String.length image_magic)
    with End_of_file ->
      raise (Image_error (path ^ " is truncated: shorter than the magic"))
  in
  if magic <> image_magic then
    raise
      (Image_error (path ^ " is not a GhostDB image (or an incompatible version)"));
  let hdr = Bytes.create 8 in
  (try really_input ic hdr 0 8
   with End_of_file ->
     raise (Image_error (path ^ " is truncated: payload length missing")));
  let len = Codec.get_u64 hdr 0 in
  let remaining = in_channel_length ic - pos_in ic in
  if len < 0 || len + 4 > remaining then
    raise
      (Image_error
         (Printf.sprintf "%s is truncated: %d payload bytes promised, %d present"
            path len (max 0 (remaining - 4))));
  let payload = Bytes.create len in
  really_input ic payload 0 len;
  let tail = Bytes.create 4 in
  really_input ic tail 0 4;
  if Codec.get_u32 tail 0 <> Codec.crc32 payload ~pos:0 ~len then
    raise (Image_error (path ^ " is corrupted: payload checksum mismatch"));
  try (Marshal.from_bytes payload 0 : t)
  with Failure _ ->
    raise (Image_error (path ^ " is corrupted: unmarshalling failed"))

let row_to_string row =
  String.concat " | " (Array.to_list (Array.map Value.to_string row))
