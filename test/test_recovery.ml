(* End-to-end crash recovery: a power cut tears a log program while the
   database is running; recovery must restore exactly the acknowledged
   state from the sealed log pages, and the public store must agree
   with the device afterwards. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Catalog = Ghostdb.Catalog
module Delta_log = Ghostdb.Delta_log
module Public_store = Ghost_public.Public_store

let check = Alcotest.check

(* 512-byte pages, so a write batch spans log pages at tiny scale: 9
   Prescription delta records or 123 tombstones per sealed page. The
   leveled layout spills every two full L0 pages into a run; the flat
   one keeps the default thresholds, which these few pages never
   reach, so its log stays all L0. *)
let config ~leveled =
  {
    Device.default_config with
    Device.flash_geometry = { Flash.page_size = 512; pages_per_block = 8 };
    log_runs =
      (if leveled then Some { Device.l0_spill_pages = 2; run_fanout = 2 } else None);
  }

let layouts = [ ("flat", false); ("leveled", true) ]

let make ~leveled =
  let rows = Medical.generate Medical.tiny in
  let db =
    Ghost_db.of_schema ~device_config:(config ~leveled) (Medical.schema ()) rows
  in
  (db, rows)

let scale = Medical.tiny

let new_prescriptions ?(seed = 5) db n =
  Medical.new_prescriptions scale (Rng.create seed)
    ~first:(scale.Medical.prescriptions + Ghost_db.delta_count db + 1) n

(* Records per sealed log page: the page minus its 20-byte header. *)
let per_page db ~record_bytes =
  ((Flash.geometry (Device.flash (Ghost_db.device db))).Flash.page_size - 20)
  / record_bytes

let delta_per_page db =
  match Catalog.delta (Ghost_db.catalog db) "Prescription" with
  | Some log -> per_page db ~record_bytes:(Delta_log.record_bytes log)
  | None -> Alcotest.fail "no delta log"

(* Inserts 2 pages and 3 rows of a third, then compacts (a leveled log
   spills its full pages into a run): the L0 tail holds 3 records. *)
let grow db =
  let first = new_prescriptions ~seed:4 db 3 in
  Ghost_db.insert db first;
  let more = new_prescriptions ~seed:3 db (2 * delta_per_page db) in
  Ghost_db.insert db more;
  Ghost_db.compact db;
  first @ more

let key row = match row.(0) with Value.Int k -> k | _ -> Alcotest.fail "key"

let count_rows db =
  match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
  | [ [| Value.Int n |] ] -> n
  | _ -> Alcotest.fail "count shape"

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

(* The public store and the device agree on exactly the durable rows:
   the base rows plus [inserted] minus [deleted], in the visible row
   count, in COUNT( * ) and in the demo query's rows. *)
let check_mirrors ~tag db rows ~inserted ~deleted =
  let live =
    List.filter (fun r -> not (List.mem (key r) deleted))
      (List.assoc "Prescription" rows @ inserted)
  in
  check Alcotest.int (tag ^ "public rows") (List.length live)
    (Public_store.cardinality (Ghost_db.public db) "Prescription");
  check Alcotest.int (tag ^ "COUNT(*)") (List.length live) (count_rows db);
  let refdb =
    Reference.db_of_rows (Ghost_db.schema db)
      (List.map
         (fun (name, rs) -> if name = "Prescription" then (name, live) else (name, rs))
         rows)
  in
  let expected = Reference.run (Ghost_db.schema db) refdb (Ghost_db.bind db Queries.demo) in
  check Alcotest.bool (tag ^ "demo rows = reference") true
    (rows_equal (Ghost_db.query db Queries.demo).Exec.rows expected)

(* A second recover finds nothing to do and touches no Flash. *)
let check_second_recover_noop ~tag db =
  let flash = Device.flash (Ghost_db.device db) in
  let before = Flash.stats flash in
  let r = Ghost_db.recover db in
  check Alcotest.(list int) (tag ^ "second recover is a no-op") [ 0; 0; 0; 0; 0; 0 ]
    [
      r.Ghost_db.delta_recovered; r.Ghost_db.delta_lost; r.Ghost_db.delta_torn_pages;
      r.Ghost_db.tombstones_recovered; r.Ghost_db.tombstones_lost;
      r.Ghost_db.tombstone_torn_pages;
    ];
  let after = Flash.stats flash in
  check Alcotest.(pair int int) (tag ^ "no Flash traffic")
    (before.Flash.page_reads, before.Flash.page_programs)
    (after.Flash.page_reads, after.Flash.page_programs)

let prefix n xs = List.filteri (fun i _ -> i < n) xs

(* The torn insert batch completes the L0 tail's page (its first
   program) and spills 5 rows into a fresh page: the cut tears that
   2nd program. *)
let test_power_cut_during_insert () =
  List.iter
    (fun (layout, leveled) ->
       let tag = layout ^ ": " in
       let db, rows = make ~leveled in
       let flash = Device.flash (Ghost_db.device db) in
       let inserted = grow db in
       let rpp = delta_per_page db in
       let before = Ghost_db.delta_count db in
       let batch = new_prescriptions ~seed:6 db (rpp - 3 + 5) in
       Flash.arm_power_cut flash ~after_programs:2;
       (try
          Ghost_db.insert db batch;
          Alcotest.fail "expected Power_cut"
        with Flash.Power_cut _ -> ());
       check Alcotest.bool (tag ^ "needs recovery") true (Ghost_db.needs_recovery db);
       (* mutations refuse until recovered *)
       (try
          Ghost_db.insert db (new_prescriptions ~seed:7 db 1);
          Alcotest.fail "insert must refuse"
        with Invalid_argument _ -> ());
       (try
          ignore (Ghost_db.reorganize db);
          Alcotest.fail "reorganize must refuse"
        with Failure _ -> ());
       let acked = prefix (rpp - 3) batch in
       let r = Ghost_db.recover db in
       let durable = before + List.length acked in
       check Alcotest.int (tag ^ "delta recovered") durable r.Ghost_db.delta_recovered;
       check Alcotest.int (tag ^ "torn program's rows lost") 5 r.Ghost_db.delta_lost;
       check Alcotest.bool (tag ^ "torn page reported") true
         (r.Ghost_db.delta_torn_pages >= 1);
       check Alcotest.int (tag ^ "tombstone log untouched") 0
         r.Ghost_db.tombstone_torn_pages;
       check Alcotest.bool (tag ^ "recovered") false (Ghost_db.needs_recovery db);
       check Alcotest.int (tag ^ "delta count") durable (Ghost_db.delta_count db);
       (* the device's robustness counters saw all of it *)
       let f = Device.fault_counters (Ghost_db.device db) in
       check Alcotest.int (tag ^ "power cut counted") 1
         (Device.count f Device.Flash_power_cuts);
       check Alcotest.int (tag ^ "recovered counted") durable
         (Device.count f Device.Records_recovered);
       check Alcotest.int (tag ^ "lost counted") 5 (Device.count f Device.Records_lost);
       let inserted = inserted @ acked in
       check_mirrors ~tag db rows ~inserted ~deleted:[];
       check_second_recover_noop ~tag db;
       check_mirrors ~tag:(tag ^ "after a second recover: ") db rows ~inserted ~deleted:[];
       (* the log accepts appends again, continuing the key sequence *)
       let resumed = new_prescriptions ~seed:8 db 3 in
       Ghost_db.insert db resumed;
       check Alcotest.int (tag ^ "inserts resume") (durable + 3) (Ghost_db.delta_count db);
       check_mirrors ~tag:(tag ^ "resumed: ") db rows ~inserted:(inserted @ resumed)
         ~deleted:[];
       (* reorganization folds the recovered state in cleanly *)
       let db2 = Ghost_db.reorganize db in
       check Alcotest.int (tag ^ "reorganized count")
         (scale.Medical.prescriptions + durable + 3) (count_rows db2);
       check Alcotest.int (tag ^ "delta folded") 0 (Ghost_db.delta_count db2))
    layouts

(* One row, then a batch of two pages and 4 rows: the batch's 1st
   program completes the first page, the cut tears its 2nd (a full
   page), so the log keeps exactly its first page. *)
let test_power_cut_insert_query_matches_reference () =
  List.iter
    (fun (layout, leveled) ->
       let tag = layout ^ ": " in
       let db, rows = make ~leveled in
       let flash = Device.flash (Ghost_db.device db) in
       (* a one-row batch creates the log, so its page size is known *)
       let first = new_prescriptions ~seed:10 db 1 in
       Ghost_db.insert db first;
       let rpp = delta_per_page db in
       let batch = new_prescriptions ~seed:11 db ((2 * rpp) + 4) in
       Flash.arm_power_cut flash ~after_programs:2;
       (try Ghost_db.insert db batch; Alcotest.fail "expected Power_cut"
        with Flash.Power_cut _ -> ());
       let r = Ghost_db.recover db in
       let acked = prefix (rpp - 1) batch in
       check Alcotest.int (tag ^ "recovered the 1st page") rpp r.Ghost_db.delta_recovered;
       check Alcotest.int (tag ^ "lost the torn page") rpp r.Ghost_db.delta_lost;
       check_mirrors ~tag db rows ~inserted:(first @ acked) ~deleted:[];
       check_second_recover_noop ~tag db;
       check_mirrors ~tag:(tag ^ "after a second recover: ") db rows
         ~inserted:(first @ acked) ~deleted:[])
    layouts

(* The torn delete batch completes the tombstone tail's page and spills
   3 ids into a fresh page; the cut tears that 2nd program. *)
let test_power_cut_during_delete () =
  List.iter
    (fun (layout, leveled) ->
       let tag = layout ^ ": " in
       let db, rows = make ~leveled in
       let flash = Device.flash (Ghost_db.device db) in
       let inserted = grow db in
       Ghost_db.delete db [ 1; 2 ];
       check Alcotest.int (tag ^ "two tombstones") 2 (Ghost_db.tombstone_count db);
       let rpp = per_page db ~record_bytes:4 in
       let batch = List.init (rpp - 2 + 3) (fun i -> i + 3) in
       Flash.arm_power_cut flash ~after_programs:2;
       (try
          Ghost_db.delete db batch;
          Alcotest.fail "expected Power_cut"
        with Flash.Power_cut _ -> ());
       check Alcotest.bool (tag ^ "needs recovery") true (Ghost_db.needs_recovery db);
       let r = Ghost_db.recover db in
       let acked = prefix (rpp - 2) batch in
       let torn = List.filteri (fun i _ -> i >= rpp - 2) batch in
       check Alcotest.int (tag ^ "durable tombstones") rpp r.Ghost_db.tombstones_recovered;
       check Alcotest.int (tag ^ "torn program's ids lost") 3 r.Ghost_db.tombstones_lost;
       check Alcotest.int (tag ^ "tombstone count") rpp (Ghost_db.tombstone_count db);
       (* the torn program's rows survived the delete: public and device
          agree *)
       let deleted = [ 1; 2 ] @ acked in
       check_mirrors ~tag db rows ~inserted ~deleted;
       check_second_recover_noop ~tag db;
       check_mirrors ~tag:(tag ^ "after a second recover: ") db rows ~inserted ~deleted;
       (* the failed ids can be deleted again *)
       Ghost_db.delete db torn;
       check Alcotest.int (tag ^ "delete resumes") (rpp + 3) (Ghost_db.tombstone_count db);
       check_mirrors ~tag:(tag ^ "resumed: ") db rows ~inserted ~deleted:(deleted @ torn))
    layouts

(* Sealed logs on the default device need no recovery until a power
   cut tears a program. *)
let test_no_power_cut_no_recovery () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  Ghost_db.insert db (new_prescriptions db 2);
  check Alcotest.bool "no recovery without a power cut" false
    (Ghost_db.needs_recovery db)

let suite = [
  Alcotest.test_case "power cut during insert" `Quick test_power_cut_during_insert;
  Alcotest.test_case "recovered db matches reference" `Quick
    test_power_cut_insert_query_matches_reference;
  Alcotest.test_case "power cut during delete" `Quick test_power_cut_during_delete;
  Alcotest.test_case "no power cut, no recovery" `Quick test_no_power_cut_no_recovery;
]
