(* End-to-end crash recovery: a power cut tears a log program while the
   database is running with durable (checksummed) logs; recovery must
   restore exactly the acknowledged state, and the public store must
   agree with the device afterwards. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec

let check = Alcotest.check

let durable_config = { Device.default_config with Device.durable_logs = true }

let make () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema ~device_config:durable_config (Medical.schema ()) rows in
  (db, rows)

let scale = Medical.tiny

let new_prescriptions ?(seed = 5) db n =
  let rng = Rng.create seed in
  let next = scale.Medical.prescriptions + Ghost_db.delta_count db + 1 in
  List.init n (fun i ->
    [|
      Value.Int (next + i);
      Value.Int (Rng.int_in rng 1 10);
      Value.Int (Rng.int_in rng 1 4);
      Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
      Value.Int (1 + Rng.int rng scale.Medical.medicines);
      Value.Int (1 + Rng.int rng scale.Medical.visits);
    |])

let count_rows db =
  match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
  | [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.fail "count shape"

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let test_power_cut_during_insert () =
  let db, _ = make () in
  let flash = Device.flash (Ghost_db.device db) in
  Ghost_db.insert db (new_prescriptions db 10);
  (* the 3rd record of the next batch tears mid-program *)
  Flash.arm_power_cut flash ~after_programs:3;
  let batch = new_prescriptions ~seed:6 db 8 in
  (try
     Ghost_db.insert db batch;
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Ghost_db.needs_recovery db);
  (* mutations refuse until recovered *)
  (try
     Ghost_db.insert db (new_prescriptions ~seed:7 db 1);
     Alcotest.fail "insert must refuse"
   with Invalid_argument _ -> ());
  (try
     ignore (Ghost_db.reorganize db);
     Alcotest.fail "reorganize must refuse"
   with Failure _ -> ());
  let r = Ghost_db.recover db in
  (* 10 acknowledged + the 2 durable records of the torn batch *)
  check Alcotest.int "delta recovered" 12 r.Ghost_db.delta_recovered;
  check Alcotest.int "torn record lost" 1 r.Ghost_db.delta_lost;
  check Alcotest.bool "torn page reported" true (r.Ghost_db.delta_torn_pages >= 1);
  check Alcotest.int "tombstone log untouched" 0 r.Ghost_db.tombstone_torn_pages;
  check Alcotest.bool "recovered" false (Ghost_db.needs_recovery db);
  check Alcotest.int "delta count" 12 (Ghost_db.delta_count db);
  (* the device's robustness counters saw all of it *)
  let f = Device.fault_counters (Ghost_db.device db) in
  check Alcotest.int "power cut counted" 1 (Device.count f Device.Flash_power_cuts);
  check Alcotest.int "recovered counted" 12 (Device.count f Device.Records_recovered);
  check Alcotest.int "lost counted" 1 (Device.count f Device.Records_lost);
  (* queries see exactly the acknowledged prefix, visible + hidden *)
  check Alcotest.int "row count" (scale.Medical.prescriptions + 12) (count_rows db);
  (* the log accepts appends again, continuing the key sequence *)
  Ghost_db.insert db (new_prescriptions ~seed:8 db 3);
  check Alcotest.int "inserts resume" 15 (Ghost_db.delta_count db);
  (* reorganization folds the recovered state in cleanly *)
  let db2 = Ghost_db.reorganize db in
  check Alcotest.int "reorganized count" (scale.Medical.prescriptions + 15) (count_rows db2);
  check Alcotest.int "delta folded" 0 (Ghost_db.delta_count db2)

let test_power_cut_insert_query_matches_reference () =
  let db, rows = make () in
  let flash = Device.flash (Ghost_db.device db) in
  let batch = new_prescriptions ~seed:11 db 6 in
  Flash.arm_power_cut flash ~after_programs:4;
  (try Ghost_db.insert db batch; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  ignore (Ghost_db.recover db);
  let acked = List.filteri (fun i _ -> i < 3) batch in
  let full_rows =
    List.map
      (fun (name, rs) ->
         if name = "Prescription" then (name, rs @ acked) else (name, rs))
      rows
  in
  let refdb = Reference.db_of_rows (Ghost_db.schema db) full_rows in
  let q = Ghost_db.bind db Queries.demo in
  let expected = Reference.run (Ghost_db.schema db) refdb q in
  let r = Ghost_db.query db Queries.demo in
  check Alcotest.bool "query matches acknowledged prefix" true
    (rows_equal r.Exec.rows expected)

let test_power_cut_during_delete () =
  let db, _ = make () in
  let flash = Device.flash (Ghost_db.device db) in
  Ghost_db.delete db [ 1; 2 ];
  check Alcotest.int "two tombstones" 2 (Ghost_db.tombstone_count db);
  (* the 2nd id of the next batch tears *)
  Flash.arm_power_cut flash ~after_programs:2;
  (try
     Ghost_db.delete db [ 3; 4; 5 ];
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Ghost_db.needs_recovery db);
  let r = Ghost_db.recover db in
  check Alcotest.int "durable tombstones" 3 r.Ghost_db.tombstones_recovered;
  check Alcotest.int "torn tombstone lost" 1 r.Ghost_db.tombstones_lost;
  check Alcotest.int "tombstone count" 3 (Ghost_db.tombstone_count db);
  (* rows 4 and 5 survived the torn delete: public and device agree *)
  check Alcotest.int "row count" (scale.Medical.prescriptions - 3) (count_rows db);
  (* the failed ids can be deleted again *)
  Ghost_db.delete db [ 4; 5 ];
  check Alcotest.int "delete resumes" 5 (Ghost_db.tombstone_count db);
  check Alcotest.int "row count after resume" (scale.Medical.prescriptions - 5)
    (count_rows db)

let test_plain_logs_have_no_recovery () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  Ghost_db.insert db (new_prescriptions db 2);
  check Alcotest.bool "plain logs never need recovery" false
    (Ghost_db.needs_recovery db)

let suite = [
  Alcotest.test_case "power cut during insert" `Quick test_power_cut_during_insert;
  Alcotest.test_case "recovered db matches reference" `Quick
    test_power_cut_insert_query_matches_reference;
  Alcotest.test_case "power cut during delete" `Quick test_power_cut_during_delete;
  Alcotest.test_case "plain logs have no recovery" `Quick test_plain_logs_have_no_recovery;
]
