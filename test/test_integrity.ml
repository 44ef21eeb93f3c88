(* End-to-end integrity: authenticated structure pages (CRC-32
   trailers, verified on every cache-miss read), the Exec-level
   transient-vs-persistent retry, the background scrubber (refresh of
   ECC-correctable decay, determinism, resume across idle slices) and
   fleet anti-entropy repair. The core property: a corrupted device
   answers correctly or raises Integrity_error — never silently
   wrong. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Bind = Ghost_sql.Bind
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Delta_log = Ghostdb.Delta_log
module Tombstone_log = Ghostdb.Tombstone_log
module Exec = Ghostdb.Exec
module Scheduler = Ghost_sched.Scheduler
module Scrub = Ghost_scrub.Scrub
module Fleet = Ghost_fleet.Fleet

let schema () = Medical.schema ()
let rows () = Medical.generate Medical.tiny

let verified_config = { Device.default_config with Device.verify_pages = true }

(* ECC off: a single stored flip reaches the served buffer, so the CRC
   trailer is the only line of defence — the sweep exercises exactly
   the detection layer. *)
let no_ecc_config =
  { verified_config with
    Device.flash_fault = Some { Flash.no_faults with Flash.ecc = false } }

let sweep_queries =
  [
    Queries.demo;
    "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 8 AND 10";
    "SELECT Pat.PatID FROM Patient Pat WHERE Pat.BodyMassIndex >= 35.0";
  ]

let structure_flash db =
  ( Device.flash (Ghost_db.device db),
    Catalog.structure_pages (Ghost_db.catalog db) )

(* verify_pages changes the clock (full-page verified reads), never
   the answers, and raises nothing on an undamaged store. *)
let test_verify_equivalence () =
  let plain = Ghost_db.of_schema (schema ()) (rows ()) in
  let verified = Ghost_db.of_schema ~device_config:verified_config (schema ()) (rows ()) in
  List.iter
    (fun sql ->
       let p = Ghost_db.query plain sql in
       let v = Ghost_db.query verified sql in
       Alcotest.(check bool) "rows equal" true (p.Exec.rows = v.Exec.rows);
       Alcotest.(check bool) "verified reads cost at least as much" true
         (v.Exec.elapsed_us >= p.Exec.elapsed_us))
    sweep_queries;
  let f = Device.fault_counters (Ghost_db.device verified) in
  Alcotest.(check int) "no integrity errors on a clean store" 0
    (Device.count f Device.Integrity_errors)

(* The tentpole property: a single bit flip in EVERY structure page,
   one page at a time — each query either answers correctly or raises
   Integrity_error. Corruption is XOR-toggled, so each page is
   restored exactly before the next is damaged. *)
let test_single_flip_sweep () =
  let db = Ghost_db.of_schema ~device_config:no_ecc_config (schema ()) (rows ()) in
  let flash, pages = structure_flash db in
  Alcotest.(check bool) "store has structure pages" true (pages <> []);
  let expected = List.map (fun sql -> (Ghost_db.query db sql).Exec.rows) sweep_queries in
  let detections = ref 0 in
  List.iter
    (fun page ->
       let bit = 8 * (page mod 97) in
       Flash.corrupt_stored flash ~page ~bit;
       List.iter2
         (fun sql want ->
            match Ghost_db.query db sql with
            | r ->
              Alcotest.(check bool)
                (Printf.sprintf "page %d: correct or detected" page)
                true
                (r.Exec.rows = want)
            | exception Flash.Integrity_error { page = p; _ } ->
              Alcotest.(check int) "error names the damaged page" page p;
              incr detections)
         sweep_queries expected;
       (* toggle the same bit back: the page must be pristine again *)
       Flash.corrupt_stored flash ~page ~bit;
       Alcotest.(check int)
         (Printf.sprintf "page %d restored" page)
         0 (Flash.page_errors flash page))
    pages;
  Alcotest.(check bool) "some flips were read and detected" true (!detections > 0);
  let f = Device.fault_counters (Ghost_db.device db) in
  Alcotest.(check bool) "uncorrected ECC errors surfaced" true
    (Device.count f Device.Flash_ecc_uncorrected > 0);
  Alcotest.(check int) "every detection was counted" !detections
    (Device.count f Device.Integrity_errors);
  (* the store is fully restored: everything answers again *)
  List.iter2
    (fun sql want ->
       Alcotest.(check bool) "restored store answers" true
         ((Ghost_db.query db sql).Exec.rows = want))
    sweep_queries expected

(* ---- log pages ----

   The same property over the delta and tombstone logs: leveled logs on
   512-byte pages, so a few dozen inserts spill into runs (id and value
   streams) and leave L0 pages behind. Each live log page gets stored
   flips in its first record: one at a time past disabled ECC, and two
   together past single-bit ECC. Every query then answers correctly or
   raises Integrity_error naming the page; a flipped Quantity must
   never come back as data. *)

let log_config ~ecc =
  {
    verified_config with
    Device.flash_geometry = { Flash.page_size = 512; pages_per_block = 8 };
    log_runs = Some { Device.l0_spill_pages = 2; run_fanout = 2 };
    flash_fault = (if ecc then None else Some { Flash.no_faults with Flash.ecc = false });
  }

let log_queries =
  [
    "SELECT Pre.PreID, Pre.Quantity, Pre.Frequency FROM Prescription Pre";
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = 'Sclerosis' \
     AND Vis.VisID = Pre.VisID";
  ]

let new_prescriptions db rng n =
  let scale = Medical.tiny in
  let next = Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1 in
  List.init n (fun i ->
    [|
      Value.Int (next + i);
      Value.Int (Rng.int_in rng 1 10);
      Value.Int (Rng.int_in rng 1 4);
      Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
      Value.Int (1 + Rng.int rng scale.Medical.medicines);
      Value.Int (1 + Rng.int rng scale.Medical.visits);
    |])

(* Inserts, deletes and one compaction step, then more inserts: L0
   pages, both streams of a run and tombstone pages are all live. *)
let log_db ~ecc =
  let db = Ghost_db.of_schema ~device_config:(log_config ~ecc) (schema ()) (rows ()) in
  let rng = Rng.create 17 in
  for _ = 1 to 4 do
    Ghost_db.insert db (new_prescriptions db rng 12)
  done;
  let top = Catalog.total_count (Ghost_db.catalog db) "Prescription" in
  Ghost_db.delete db (List.init 12 (fun i -> top - (3 * i)) @ [ 1; 2; 3 ]);
  let compactor = Ghostdb.Compaction.create (Ghost_db.catalog db) in
  while not (Ghostdb.Compaction.idle compactor) do
    ignore (Ghostdb.Compaction.step compactor)
  done;
  Ghost_db.insert db (new_prescriptions db rng 20);
  ignore (Ghostdb.Compaction.step compactor);
  db

let log_pages db =
  let cat = Ghost_db.catalog db in
  Delta_log.pages (Option.get (Catalog.delta cat "Prescription"))
  @ Tombstone_log.pages (Option.get (Catalog.tombstone cat "Prescription"))

let page_tag flash page = Bytes.sub_string (Flash.read_page flash page) 0 4

(* Bits near the start of every log page's payload: byte 32 + k falls
   in the first packed records of a run's id page, the first hidden
   value of a value page and an id of an L0 record; byte 44 + k in a
   later packed record of an id page, the Quantity of an L0 record and
   a tombstoned id. *)
let flip_bits page = [ (8 * (32 + (page mod 8))) + (page mod 8); (8 * (44 + (page mod 4))) + 3 ]

let log_sweep ~ecc ~flips =
  let db = log_db ~ecc in
  let flash = Device.flash (Ghost_db.device db) in
  let pages = log_pages db in
  let tags = List.sort_uniq compare (List.map (page_tag flash) pages) in
  Alcotest.(check (list string)) "every kind of log page is live"
    [ "GDLT"; "GDRN"; "GDRV"; "GTMB" ] tags;
  let expected = List.map (fun sql -> (Ghost_db.query db sql).Exec.rows) log_queries in
  let detected = Hashtbl.create 8 in
  let trial page bits =
    List.iter (fun bit -> Flash.corrupt_stored flash ~page ~bit) bits;
    List.iter2
      (fun sql want ->
         match Ghost_db.query db sql with
         | r ->
           if r.Exec.rows <> want then
             Alcotest.failf "log page %d (%s), bits %s: wrong rows returned" page
               (page_tag flash page)
               (String.concat "," (List.map string_of_int bits))
         | exception Flash.Integrity_error { page = p; _ } ->
           Alcotest.(check int) "error names the damaged page" page p;
           Hashtbl.replace detected (page_tag flash page) ())
      log_queries expected;
    List.iter (fun bit -> Flash.corrupt_stored flash ~page ~bit) bits;
    Alcotest.(check int) (Printf.sprintf "page %d restored" page) 0
      (Flash.page_errors flash page)
  in
  List.iter
    (fun page ->
       match flips with
       | `One -> List.iter (fun bit -> trial page [ bit ]) (flip_bits page)
       | `Two -> trial page (flip_bits page))
    pages;
  Alcotest.(check (list string)) "damage detected on every kind of log page" tags
    (List.sort compare (Hashtbl.fold (fun tag () acc -> tag :: acc) detected []));
  List.iter2
    (fun sql want ->
       Alcotest.(check bool) "restored logs answer" true
         ((Ghost_db.query db sql).Exec.rows = want))
    log_queries expected

let test_log_flip_sweep () =
  log_sweep ~ecc:false ~flips:`One;
  log_sweep ~ecc:true ~flips:`Two

(* A caught error on a log page is classified by the page's own seal:
   an undamaged L0 page, packed run id page, run value page and
   tombstone page read as intact — the structure-page trailer check,
   which log pages do not carry, calls every one of them damaged — and
   each reads as damaged while a stored bit of its payload is
   flipped. *)
let test_log_page_classifier () =
  let db = log_db ~ecc:false in
  let cat = Ghost_db.catalog db in
  let flash = Device.flash (Ghost_db.device db) in
  let by_tag =
    List.fold_left
      (fun acc page ->
         let tag = page_tag flash page in
         if List.mem_assoc tag acc then acc else (tag, page) :: acc)
      [] (log_pages db)
  in
  List.iter
    (fun tag ->
       let page =
         match List.assoc_opt tag by_tag with
         | Some p -> p
         | None -> Alcotest.failf "no live %s page" tag
       in
       let what = Printf.sprintf "%s page %d" tag page in
       Alcotest.(check bool) (what ^ ": intact") true (Catalog.page_intact cat ~page);
       Alcotest.(check bool) (what ^ ": no structure trailer") false
         (Flash.page_intact flash ~page);
       let bit = 8 * 40 in
       Flash.corrupt_stored flash ~page ~bit;
       Alcotest.(check bool) (what ^ ": damaged") false (Catalog.page_intact cat ~page);
       Flash.corrupt_stored flash ~page ~bit;
       Alcotest.(check bool) (what ^ ": intact once restored") true
         (Catalog.page_intact cat ~page))
    [ "GDLT"; "GDRN"; "GDRV"; "GTMB" ]

(* Read faults on a device with inserted rows: every query scans the
   delta log, so some faults land on its L0 page. Each caught error —
   on a log page or a structure page, with the cells intact, in a
   query or in an insert's SKT probe — is retried once and counted as
   transient, and every query that completes returns the rows of a
   fault-free twin. *)
let test_log_transient_retry () =
  let config =
    { verified_config with
      Device.flash_fault =
        Some { Flash.no_faults with
               Flash.ecc = false;
               fault_seed = 7;
               read_flip_prob = 0.05 } }
  in
  let clean = Ghost_db.of_schema (schema ()) (rows ()) in
  let db = Ghost_db.of_schema ~device_config:config (schema ()) (rows ()) in
  let inserted = new_prescriptions db (Rng.create 3) 20 in
  (* the insert's SKT probes fault too, and retry like a query *)
  Ghost_db.insert db inserted;
  Ghost_db.insert clean inserted;
  let top = Catalog.total_count (Ghost_db.catalog db) "Prescription" in
  let failed = ref 0 in
  for i = 0 to 199 do
    let sql =
      Printf.sprintf
        "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = %d"
        (top - (i mod 40))
    in
    let want = (Ghost_db.query clean sql).Exec.rows in
    match Ghost_db.query db sql with
    | r -> Alcotest.(check bool) "retried reads answer correctly" true (r.Exec.rows = want)
    | exception Flash.Integrity_error _ -> incr failed
  done;
  let f = Device.fault_counters (Ghost_db.device db) in
  let errors = Device.count f Device.Integrity_errors in
  Alcotest.(check bool) "some reads were caught" true (errors > 0);
  Alcotest.(check int) "every caught error was transient and retried" errors
    (Device.count f Device.Integrity_transients);
  Alcotest.(check bool) "only a retry that faulted again failed" true (!failed <= errors)

(* Injected read faults (not stored damage) corrupt one served buffer:
   the trailer catches it, the cache-bypass re-read comes back clean,
   and the query completes with the right answer. *)
let test_transient_retry () =
  let config =
    { verified_config with
      Device.flash_fault =
        Some { Flash.no_faults with
               Flash.ecc = false;
               fault_seed = 7;
               read_flip_prob = 0.02 } }
  in
  let clean = Ghost_db.of_schema (schema ()) (rows ()) in
  let db = Ghost_db.of_schema ~device_config:config (schema ()) (rows ()) in
  List.iter
    (fun sql ->
       let want = (Ghost_db.query clean sql).Exec.rows in
       Alcotest.(check bool) "retried reads answer correctly" true
         ((Ghost_db.query db sql).Exec.rows = want))
    sweep_queries;
  let f = Device.fault_counters (Ghost_db.device db) in
  Alcotest.(check bool) "some reads were caught and retried" true
    (Device.count f Device.Integrity_transients > 0);
  Alcotest.(check int) "all caught errors were transient"
    (Device.count f Device.Integrity_errors) (Device.count f Device.Integrity_transients)

(* The scrubber refreshes ECC-correctable decay in place, records
   uncorrectable pages, and two identical devices scrub to identical
   progress on identical clocks. *)
let test_scrub_refresh_determinism () =
  let make () =
    let db = Ghost_db.of_schema ~device_config:verified_config (schema ()) (rows ()) in
    let flash, pages = structure_flash db in
    let decayed = [ List.nth pages 0; List.nth pages 2; List.nth pages 4 ] in
    let doomed = List.nth pages 1 in
    List.iter (fun page -> Flash.corrupt_stored flash ~page ~bit:3) decayed;
    Flash.corrupt_stored flash ~page:doomed ~bit:3;
    Flash.corrupt_stored flash ~page:doomed ~bit:11;
    (db, flash, pages, decayed, doomed)
  in
  let db1, flash1, pages1, decayed, doomed = make () in
  let db2, _, _, _, _ = make () in
  let scrub db =
    let _, pages = structure_flash db in
    let s = Scrub.create (Ghost_db.device db) ~pages in
    Scrub.run_pending s;
    s
  in
  let s1 = scrub db1 and s2 = scrub db2 in
  Alcotest.(check bool) "identical progress" true
    (Scrub.progress s1 = Scrub.progress s2);
  Alcotest.(check (float 0.)) "identical clocks"
    (Device.elapsed_us (Ghost_db.device db1))
    (Device.elapsed_us (Ghost_db.device db2));
  let p = Scrub.progress s1 in
  Alcotest.(check int) "one pass" 1 p.Scrub.passes;
  Alcotest.(check int) "every page verified" (List.length pages1)
    p.Scrub.pages_verified;
  Alcotest.(check int) "decayed pages refreshed" (List.length decayed)
    p.Scrub.refreshed;
  Alcotest.(check (list int)) "uncorrectable page recorded" [ doomed ]
    p.Scrub.corrupt;
  List.iter
    (fun page ->
       Alcotest.(check int) "refresh cleared the decay" 0
         (Flash.page_errors flash1 page))
    decayed;
  let f = Device.fault_counters (Ghost_db.device db1) in
  Alcotest.(check int) "scrubbed pages counted" (List.length pages1)
    (Device.count f Device.Pages_scrubbed);
  Alcotest.(check int) "refreshes counted" (List.length decayed)
    (Device.count f Device.Scrub_refreshes)

(* Scrubbing one batch at a time — paused and resumed — lands on the
   same state as one eager pass, and the scheduler's idle slices drive
   it to completion. *)
let test_scrub_resume_across_slices () =
  let make () =
    let db = Ghost_db.of_schema ~device_config:verified_config (schema ()) (rows ()) in
    let flash, pages = structure_flash db in
    Flash.corrupt_stored flash ~page:(List.hd pages) ~bit:5;
    (db, pages)
  in
  let db1, pages1 = make () in
  let db2, pages2 = make () in
  let eager = Scrub.create (Ghost_db.device db1) ~pages:pages1 in
  Scrub.run_pending eager;
  let sliced = Scrub.create (Ghost_db.device db2) ~pages:pages2 in
  (* resume boundary after every single slice *)
  while Scrub.step sliced do
    Alcotest.(check bool) "cursor within walk list" true
      ((Scrub.progress sliced).Scrub.cursor <= Scrub.page_count sliced)
  done;
  Alcotest.(check bool) "sliced = eager" true
    (Scrub.progress sliced = Scrub.progress eager);
  Alcotest.(check bool) "idle after the pass" true (Scrub.idle sliced);
  Alcotest.(check bool) "idle scrubber does nothing" false (Scrub.step sliced);
  (* a second requested pass re-walks the (now clean) list *)
  Scrub.request_pass sliced;
  Scrub.run_pending sliced;
  let p = Scrub.progress sliced in
  Alcotest.(check int) "two passes" 2 p.Scrub.passes;
  Alcotest.(check int) "no new refreshes on the clean pass" 1 p.Scrub.refreshed;
  (* scheduler integration: idle slices drain the pending pass *)
  let db3, pages3 = make () in
  let sched = Scheduler.create (Ghost_db.catalog db3) (Ghost_db.public db3) in
  let s3 = Scrub.create (Ghost_db.device db3) ~pages:pages3 in
  Scheduler.set_scrubber sched (Some s3);
  Scheduler.run sched;
  Alcotest.(check bool) "scheduler drained the scrub pass" true (Scrub.idle s3);
  Alcotest.(check int) "idle slices completed the pass" 1
    (Scrub.progress s3).Scrub.passes;
  Alcotest.(check bool) "nothing left to dispatch" false (Scheduler.step sched)

let reference_rows sql =
  let schema = schema () in
  let db = Reference.db_of_rows schema (rows ()) in
  Reference.run schema db (Bind.bind schema sql)

let sorted = Reference.sort_rows

(* A replica serving corrupt pages: reads fail over (correct, complete
   answers), the health machine counts integrity failures, and
   anti-entropy rebuilds the replica from its healthy peer. *)
let test_fleet_failover_and_repair () =
  let fleet =
    Fleet.create ~device_config:verified_config
      ~topology:{ Fleet.shards = 2; replicas = 2; partitioning = Fleet.Range }
      (schema ()) (rows ())
  in
  let sql = "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity >= 1" in
  let want = reference_rows sql in
  (* wound every structure page of shard 0's first replica past ECC *)
  let victim = Fleet.db fleet ~shard:0 ~replica:0 in
  let flash, pages = structure_flash victim in
  List.iter
    (fun page ->
       Flash.corrupt_stored flash ~page ~bit:2;
       Flash.corrupt_stored flash ~page ~bit:19)
    pages;
  let r = Fleet.query fleet sql in
  Alcotest.(check bool) "failover keeps the answer complete" true
    r.Fleet.complete;
  Alcotest.(check bool) "failover keeps the answer correct" true
    (sorted r.Fleet.rows = sorted want);
  let st = Fleet.replica_stats fleet ~shard:0 ~replica:0 in
  Alcotest.(check bool) "integrity failures counted" true
    (st.Fleet.r_integrity_failures > 0);
  (* anti-entropy finds the wounded replica and rebuilds it *)
  (match Fleet.anti_entropy fleet with
   | [ rep ] ->
     Alcotest.(check int) "report names the shard" 0 rep.Fleet.rr_shard;
     Alcotest.(check int) "report names the replica" 0 rep.Fleet.rr_replica;
     Alcotest.(check bool) "bad pages found" true (rep.Fleet.rr_bad_pages > 0);
     Alcotest.(check bool) "repaired from the peer" true rep.Fleet.rr_repaired;
     Alcotest.(check bool) "repair time charged" true (rep.Fleet.rr_repair_us > 0.)
   | reports ->
     Alcotest.failf "expected exactly one repair report, got %d"
       (List.length reports));
  Alcotest.(check bool) "rebuilt replica re-enters as suspect" true
    (Fleet.health fleet ~shard:0 ~replica:0 = Fleet.Suspect);
  let rebuilt = Fleet.db fleet ~shard:0 ~replica:0 in
  Alcotest.(check int) "rebuild counted on the fresh device" 1
    (Device.count (Device.fault_counters (Ghost_db.device rebuilt)) Device.Repair_rebuilds);
  (* the fleet is whole again: a second round finds nothing *)
  Alcotest.(check int) "second anti-entropy round is clean" 0
    (List.length (Fleet.anti_entropy fleet));
  let r2 = Fleet.query fleet sql in
  Alcotest.(check bool) "repaired fleet answers correctly" true
    (r2.Fleet.complete && sorted r2.Fleet.rows = sorted want);
  Alcotest.check_raises "repair from itself rejected"
    (Invalid_argument "Fleet.repair: replica = from") (fun () ->
      ignore (Fleet.repair fleet ~shard:0 ~replica:0 ~from:0))

(* R=1 leaves nothing to fail over to: the damaged shard degrades to a
   tagged partial, and anti-entropy (needing a peer) cannot repair. *)
let test_fleet_degrades_without_replica () =
  let fleet =
    Fleet.create ~device_config:verified_config
      ~topology:{ Fleet.shards = 2; replicas = 1; partitioning = Fleet.Range }
      (schema ()) (rows ())
  in
  let victim = Fleet.db fleet ~shard:0 ~replica:0 in
  let flash, pages = structure_flash victim in
  List.iter
    (fun page ->
       Flash.corrupt_stored flash ~page ~bit:2;
       Flash.corrupt_stored flash ~page ~bit:19)
    pages;
  let sql = "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity >= 1" in
  let r = Fleet.query fleet sql in
  Alcotest.(check bool) "partial, never wrong" true (not r.Fleet.complete);
  Alcotest.(check (list int)) "damaged shard tagged" [ 0 ] r.Fleet.unreachable;
  Alcotest.(check int) "no peer, no repair" 0
    (List.length (List.filter (fun x -> x.Fleet.rr_repaired) (Fleet.anti_entropy fleet)))

let suite =
  [
    Alcotest.test_case "verify_pages: same answers, clean store" `Quick
      test_verify_equivalence;
    Alcotest.test_case "single-flip sweep: correct or detected, never wrong"
      `Quick test_single_flip_sweep;
    Alcotest.test_case "log-page flip sweep: correct or detected, never wrong"
      `Quick test_log_flip_sweep;
    Alcotest.test_case "transient read faults retry past the cache" `Quick
      test_transient_retry;
    Alcotest.test_case "log pages are classified by their own seal" `Quick
      test_log_page_classifier;
    Alcotest.test_case "transient faults on log pages retry" `Quick
      test_log_transient_retry;
    Alcotest.test_case "scrubber: refresh, record, deterministic" `Quick
      test_scrub_refresh_determinism;
    Alcotest.test_case "scrubber resumes across idle slices" `Quick
      test_scrub_resume_across_slices;
    Alcotest.test_case "fleet: integrity failover + anti-entropy repair" `Quick
      test_fleet_failover_and_repair;
    Alcotest.test_case "fleet: R=1 degrades to tagged partials" `Quick
      test_fleet_degrades_without_replica;
  ]
