(* Crash-safe reorganization: the journaled shadow build must be
   atomic under a power cut at EVERY program index — after recovery the
   database answers either as the intact pre-reorg image (roll-back) or
   as the completed rebuild (roll-forward), never anything in between.
   The sweep arms a cut at index 1, 2, 3, ... until a run completes
   without firing; the shared power line makes the index count journal
   appends and shadow-build programs alike. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Column = Ghost_relation.Column
module Schema = Ghost_relation.Schema
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec

let check = Alcotest.check

let durable_config = { Device.default_config with Device.durable_logs = true }

(* {2 A small two-table schema, kept tiny so the per-index sweep stays
   fast: every index is a full setup + rebuild + recovery.} *)

let mini_schema () =
  Schema.create
    [
      Schema.table ~name:"Visit" ~key:"VisID"
        [
          Column.make ~visibility:Column.Visible "Town" (Value.T_char 8);
          Column.make ~visibility:Column.Hidden ~refs:"Doctor" "DocID" Value.T_int;
          Column.make ~visibility:Column.Hidden "Purpose" (Value.T_char 8);
        ];
      Schema.table ~name:"Doctor" ~key:"DocID"
        [
          Column.make ~visibility:Column.Visible "Name" (Value.T_char 8);
          Column.make ~visibility:Column.Hidden "Spec" (Value.T_char 8);
        ];
    ]

let towns = [| "north"; "south"; "east"; "west" |]
let purposes = [| "flu"; "checkup"; "xray" |]
let specs = [| "gp"; "ent" |]
let doctors = 6
let base_visits = 24

let visit rng id =
  [|
    Value.Int id;
    Value.Str (Rng.pick rng towns);
    Value.Int (Rng.int_in rng 1 doctors);
    Value.Str (Rng.pick rng purposes);
  |]

let mini_rows () =
  let rng = Rng.create 42 in
  [
    ("Visit", List.init base_visits (fun i -> visit rng (i + 1)));
    ( "Doctor",
      List.init doctors (fun i ->
        [|
          Value.Int (i + 1);
          Value.Str (Printf.sprintf "d%d" (i + 1));
          Value.Str (Rng.pick rng specs);
        |]) );
  ]

let inserted_visits = 6
let deleted_visits = [ 2; 5; 9; 17 ]

let mini_inserts () =
  let rng = Rng.create 43 in
  List.init inserted_visits (fun i -> visit rng (base_visits + i + 1))

(* One database carrying pending work, deterministic across the sweep. *)
let setup () =
  let db =
    Ghost_db.of_schema ~device_config:durable_config (mini_schema ())
      (mini_rows ())
  in
  Ghost_db.insert db (mini_inserts ());
  Ghost_db.delete db deleted_visits;
  db

(* The logical content after the pending work (original root ids — the
   verification queries never mention VisID, because reorganization
   compacts root ids). *)
let mini_reference () =
  let visits =
    List.filteri
      (fun i _ -> not (List.mem (i + 1) deleted_visits))
      (List.assoc "Visit" (mini_rows ()) @ mini_inserts ())
  in
  Reference.db_of_rows (mini_schema ())
    [ ("Visit", visits); ("Doctor", List.assoc "Doctor" (mini_rows ())) ]

(* Root-id-agnostic queries: answers identical on the pre-reorg image
   (logs pending) and the post-reorg one (ids compacted, logs folded). *)
let mini_queries =
  [
    "SELECT COUNT(*) FROM Visit";
    "SELECT Visit.Purpose, COUNT(*) FROM Visit GROUP BY Visit.Purpose";
    "SELECT Doctor.Name FROM Visit, Doctor WHERE Visit.DocID = Doctor.DocID \
     AND Visit.Purpose = 'flu'";
    "SELECT Visit.Town, Visit.Purpose FROM Visit WHERE Visit.Town <> 'north'";
  ]

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let contains s sub =
  let n = String.length sub and len = String.length s in
  let rec go i = i + n <= len && (String.sub s i n = sub || go (i + 1)) in
  go 0

let verify label db =
  let refdb = mini_reference () in
  List.iter
    (fun sql ->
       let expected = Reference.run (Ghost_db.schema db) refdb (Ghost_db.bind db sql) in
       let got = (Ghost_db.query db sql).Exec.rows in
       if not (rows_equal got expected) then
         Alcotest.failf "%s: %S differs from the reference" label sql)
    mini_queries

let test_crash_point_sweep () =
  let rollbacks = ref 0 and rollforwards = ref 0 and reused_seen = ref 0 in
  let k = ref 1 and finished = ref false in
  while not !finished do
    if !k > 10_000 then Alcotest.fail "sweep did not terminate";
    let db = setup () in
    if !k = 1 then verify "pre-reorg sanity" db;
    let old_flash = Device.flash (Ghost_db.device db) in
    Flash.arm_power_cut old_flash ~after_programs:!k;
    (match Ghost_db.reorganize db with
     | db2 ->
       (* The cut never fired: the whole rebuild takes fewer than [k]
          programs. Disarm the leftover countdown (the new device
          shares the power line) and end the sweep. *)
       Flash.disarm_power_cut (Device.flash (Ghost_db.device db2));
       verify "uninterrupted" db2;
       finished := true
     | exception Flash.Power_cut _ ->
       check Alcotest.bool "needs recovery" true (Ghost_db.needs_recovery db);
       let r = Ghost_db.recover db in
       (match r.Ghost_db.reorg with
        | Some (Ghost_db.Reorg_completed { db = db2; phases_reused; _ }) ->
          incr rollforwards;
          if phases_reused >= 1 then incr reused_seen;
          verify "rolled forward" db2
        | Some (Ghost_db.Reorg_rolled_back _) ->
          incr rollbacks;
          (* the pre-reorg image stays live, pending logs included *)
          verify "rolled back" db
        | None -> Alcotest.fail "recover reported no reorg outcome"));
    incr k
  done;
  check Alcotest.bool "roll-back exercised" true (!rollbacks >= 1);
  check Alcotest.bool "roll-forward exercised" true (!rollforwards >= 1);
  check Alcotest.bool "some resume reused completed phases" true (!reused_seen >= 1);
  check Alcotest.int "every armed index recovered" (!k - 2)
    (!rollbacks + !rollforwards)

let test_rollback_keeps_old_image_live () =
  let db = setup () in
  let flash = Device.flash (Ghost_db.device db) in
  (* tear the journal's Begin record: nothing of the rebuild survives *)
  Flash.arm_power_cut flash ~after_programs:1;
  (try
     ignore (Ghost_db.reorganize db);
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  (* mutations and saves refuse until recovered *)
  (try
     Ghost_db.insert db (mini_inserts ());
     Alcotest.fail "insert must refuse"
   with Failure _ -> ());
  (try
     Ghost_db.save_image db
       (Filename.concat (Filename.get_temp_dir_name ()) "ghostdb_refused.img");
     Alcotest.fail "save_image must refuse"
   with Failure _ -> ());
  let r = Ghost_db.recover db in
  (match r.Ghost_db.reorg with
   | Some (Ghost_db.Reorg_rolled_back _) -> ()
   | _ -> Alcotest.fail "expected a roll-back");
  check Alcotest.bool "recovered" false (Ghost_db.needs_recovery db);
  let f = Device.fault_counters (Ghost_db.device db) in
  check Alcotest.int "roll-back counted" 1 (Device.count f Device.Reorg_rollbacks);
  check Alcotest.int "no roll-forward" 0 (Device.count f Device.Reorg_rollforwards);
  verify "after roll-back" db;
  (* the old image is fully live: pending work intact, reorg retries *)
  check Alcotest.int "delta intact" inserted_visits (Ghost_db.delta_count db);
  let db2 = Ghost_db.reorganize db in
  Flash.disarm_power_cut (Device.flash (Ghost_db.device db2));
  verify "after retried reorg" db2;
  check Alcotest.int "delta folded" 0 (Ghost_db.delta_count db2)

let test_rollforward_resumes () =
  let db = setup () in
  let flash = Device.flash (Ghost_db.device db) in
  (* land the cut well inside the shadow build: the Begin record and at
     least the snapshot checkpoint are durable by then *)
  Flash.arm_power_cut flash ~after_programs:10;
  (try
     ignore (Ghost_db.reorganize db);
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Ghost_db.recover db in
  (match r.Ghost_db.reorg with
   | Some (Ghost_db.Reorg_completed { db = db2; phases_reused; phases_redone }) ->
     check Alcotest.bool "snapshot phase reused" true (phases_reused >= 1);
     check Alcotest.bool "interrupted phase redone" true (phases_redone >= 1);
     let f = Device.fault_counters (Ghost_db.device db) in
     check Alcotest.int "roll-forward counted" 1 (Device.count f Device.Reorg_rollforwards);
     check Alcotest.bool "checkpoints counted" true
       (Device.count f Device.Reorg_checkpoints >= 4);
     verify "rolled forward" db2;
     check Alcotest.int "delta folded" 0 (Ghost_db.delta_count db2)
   | _ -> Alcotest.fail "expected a roll-forward")

let test_double_crash_then_recover () =
  let db = setup () in
  let flash = Device.flash (Ghost_db.device db) in
  Flash.arm_power_cut flash ~after_programs:10;
  (try ignore (Ghost_db.reorganize db); Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  (* power fails AGAIN during the roll-forward resume *)
  Flash.arm_power_cut flash ~after_programs:5;
  (try ignore (Ghost_db.recover db); Alcotest.fail "expected second Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "still needs recovery" true (Ghost_db.needs_recovery db);
  let r = Ghost_db.recover db in
  (match r.Ghost_db.reorg with
   | Some (Ghost_db.Reorg_completed { db = db2; _ }) ->
     verify "after double crash" db2
   | Some (Ghost_db.Reorg_rolled_back _) ->
     (* also sound: the second cut may have torn every later checkpoint *)
     verify "after double crash" db
   | None -> Alcotest.fail "recover reported no reorg outcome")

(* Roll-forward on the medical workload: end-to-end against the
   reference evaluator (no deletes, so root ids are stable and every
   demo query stays comparable). *)
let test_rollforward_medical_matches_reference () =
  let scale = Medical.tiny in
  let rows = Medical.generate scale in
  let db =
    Ghost_db.of_schema ~device_config:durable_config (Medical.schema ()) rows
  in
  let rng = Rng.create 7 in
  let batch =
    List.init 10 (fun i ->
      [|
        Value.Int (scale.Medical.prescriptions + i + 1);
        Value.Int (Rng.int_in rng 1 10);
        Value.Int (Rng.int_in rng 1 4);
        Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
        Value.Int (1 + Rng.int rng scale.Medical.medicines);
        Value.Int (1 + Rng.int rng scale.Medical.visits);
      |])
  in
  Ghost_db.insert db batch;
  (* Program 1 is the Begin record and program 2 the snapshot
     checkpoint, so a cut after 3 programs always fires mid-build and
     leaves the snapshot phase reusable. *)
  Flash.arm_power_cut (Device.flash (Ghost_db.device db)) ~after_programs:3;
  (try ignore (Ghost_db.reorganize db); Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Ghost_db.recover db in
  match r.Ghost_db.reorg with
  | Some (Ghost_db.Reorg_completed { db = db2; phases_reused; _ }) ->
    check Alcotest.bool "phases reused" true (phases_reused >= 1);
    let full_rows =
      List.map
        (fun (name, rs) ->
           if name = "Prescription" then (name, rs @ batch) else (name, rs))
        rows
    in
    let refdb = Reference.db_of_rows (Ghost_db.schema db2) full_rows in
    List.iter
      (fun (name, sql) ->
         let q = Ghost_db.bind db2 sql in
         let expected = Reference.run (Ghost_db.schema db2) refdb q in
         let got = (Ghost_db.query db2 sql).Exec.rows in
         if not (rows_equal got expected) then
           Alcotest.failf "%s differs after rolled-forward reorg" name)
      Queries.all;
    check Alcotest.int "delta folded" 0 (Ghost_db.delta_count db2)
  | _ -> Alcotest.fail "expected a roll-forward"

(* {2 Image robustness (the save/load side of the same guarantee)} *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let test_image_crc_corruption_detected () =
  let db = setup () in
  let path = tmp "ghostdb_reorg_image.img" in
  Ghost_db.save_image db path;
  check Alcotest.bool "no tmp file left" false (Sys.file_exists (path ^ ".tmp"));
  (* flip one payload byte: the CRC-32 trailer must catch it *)
  let data = In_channel.with_open_bin path In_channel.input_all in
  let b = Bytes.of_string data in
  let off = String.length data / 2 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x40));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc b);
  (try
     ignore (Ghost_db.load_image path);
     Alcotest.fail "expected Image_error"
   with Ghost_db.Image_error msg ->
     check Alcotest.bool "reported as corrupted" true (contains msg "corrupted"));
  Sys.remove path

(* {2 Recovery idempotence (property)}

   One {!Ghost_db.recover} fully settles the instance after ANY
   injected crash: a second recover on whichever image was kept (the
   rebuilt db on a roll-forward, the original on a roll-back) must be
   a pure no-op — zero counts, no reorg outcome, and the saved-image
   digest and device fault counters exactly as the first recover left
   them. *)

let image_digest db =
  let path = tmp "ghostdb_idem.img" in
  Ghost_db.save_image db path;
  let d = Digest.file path in
  Sys.remove path;
  d

let assert_second_recover_noop label db =
  let d1 = image_digest db in
  let f1 = Device.fault_counters (Ghost_db.device db) in
  let r2 = Ghost_db.recover db in
  check Alcotest.int (label ^ ": delta recovered") 0 r2.Ghost_db.delta_recovered;
  check Alcotest.int (label ^ ": delta lost") 0 r2.Ghost_db.delta_lost;
  check Alcotest.int (label ^ ": tombstones recovered") 0
    r2.Ghost_db.tombstones_recovered;
  check Alcotest.int (label ^ ": tombstones lost") 0 r2.Ghost_db.tombstones_lost;
  check Alcotest.int (label ^ ": delta torn pages") 0 r2.Ghost_db.delta_torn_pages;
  check Alcotest.int (label ^ ": tombstone torn pages") 0
    r2.Ghost_db.tombstone_torn_pages;
  (match r2.Ghost_db.reorg with
   | None -> ()
   | Some _ -> Alcotest.failf "%s: second recover reported a reorg outcome" label);
  check Alcotest.string (label ^ ": image digest unchanged")
    (Digest.to_hex d1)
    (Digest.to_hex (image_digest db));
  check Alcotest.bool (label ^ ": fault counters unchanged") true
    (f1 = Device.fault_counters (Ghost_db.device db))

let test_recover_idempotent_sweep () =
  let exercised = ref 0 in
  let k = ref 1 and finished = ref false in
  while not !finished do
    if !k > 10_000 then Alcotest.fail "sweep did not terminate";
    let db = setup () in
    Flash.arm_power_cut (Device.flash (Ghost_db.device db)) ~after_programs:!k;
    (match Ghost_db.reorganize db with
     | db2 ->
       Flash.disarm_power_cut (Device.flash (Ghost_db.device db2));
       finished := true
     | exception Flash.Power_cut _ ->
       let r = Ghost_db.recover db in
       let kept =
         match r.Ghost_db.reorg with
         | Some (Ghost_db.Reorg_completed { db = db2; _ }) -> db2
         | Some (Ghost_db.Reorg_rolled_back _) -> db
         | None -> Alcotest.fail "recover reported no reorg outcome"
       in
       check Alcotest.bool "settled after one recover" false
         (Ghost_db.needs_recovery kept);
       let label = Printf.sprintf "reorg crash @%d" !k in
       assert_second_recover_noop label kept;
       verify (label ^ " after double recover") kept;
       incr exercised);
    incr k
  done;
  check Alcotest.bool "crash points exercised" true (!exercised >= 2)

let test_recover_idempotent_after_insert_crash () =
  let db = setup () in
  Flash.arm_power_cut (Device.flash (Ghost_db.device db)) ~after_programs:1;
  let extra =
    let rng = Rng.create 44 in
    List.init 3 (fun i ->
      visit rng (base_visits + inserted_visits + i + 1))
  in
  (try
     Ghost_db.insert db extra;
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Ghost_db.needs_recovery db);
  let r = Ghost_db.recover db in
  (* the torn batch was never acknowledged: recovery drops it whole *)
  (match r.Ghost_db.reorg with
   | None -> ()
   | Some _ -> Alcotest.fail "no reorg was pending");
  check Alcotest.bool "settled after one recover" false
    (Ghost_db.needs_recovery db);
  assert_second_recover_noop "insert crash" db;
  verify "insert crash after double recover" db

let suite =
  [
    Alcotest.test_case "crash-point sweep is atomic" `Quick test_crash_point_sweep;
    Alcotest.test_case "recover is idempotent at every crash point" `Quick
      test_recover_idempotent_sweep;
    Alcotest.test_case "recover is idempotent after an insert crash" `Quick
      test_recover_idempotent_after_insert_crash;
    Alcotest.test_case "roll-back keeps the old image live" `Quick
      test_rollback_keeps_old_image_live;
    Alcotest.test_case "roll-forward resumes from checkpoints" `Quick
      test_rollforward_resumes;
    Alcotest.test_case "double crash still converges" `Quick
      test_double_crash_then_recover;
    Alcotest.test_case "rolled-forward medical db matches reference" `Quick
      test_rollforward_medical_matches_reference;
    Alcotest.test_case "image corruption detected by CRC" `Quick
      test_image_crc_corruption_detected;
  ]
