(* Leveled delta-log runs: spill/merge mechanics, merge-on-read
   equivalence with an uncompacted twin, crash safety of every
   compaction program, scheduler coexistence, and a randomized
   interleaving property against the reference evaluator. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Delta_log = Ghostdb.Delta_log
module Compaction = Ghostdb.Compaction
module Catalog = Ghostdb.Catalog
module Exec = Ghostdb.Exec
module Scrub = Ghost_scrub.Scrub
module Scheduler = Ghost_sched.Scheduler
module Log_run = Ghost_store.Log_run
module Planner = Ghostdb.Planner

let check = Alcotest.check

(* Small pages so a handful of inserts fills L0; aggressive thresholds
   so spills and merges both trigger at test scale. *)
let small_geometry = { Flash.page_size = 256; pages_per_block = 8 }
let policy = { Device.l0_spill_pages = 2; run_fanout = 2 }

let runs_config =
  { Device.default_config with Device.flash_geometry = small_geometry; log_runs = Some policy }

(* The twin that nothing compacts: its log stays all L0, as the
   paper's append-only log. *)
let flat_config = { Device.default_config with Device.flash_geometry = small_geometry }

(* ---- unit level ---- *)

let flash () = Flash.create ~geometry:small_geometry ()

let make_log f =
  Delta_log.create ~runs:policy f
    ~levels:[ "R"; "A"; "B" ] ~max_ids:[ 6; 4 ]
    ~hidden_cols:[ ("q", Value.T_int); ("s", Value.T_char 8) ]

let row_of i =
  { Delta_log.ids = [| i; i mod 7; i mod 5 |];
    hidden = [| Value.Int (i * 3); Value.Str (Printf.sprintf "s%d" i) |] }

let append_ids log lo hi =
  for i = lo to hi do
    Delta_log.append log [ row_of i ]
  done

let drain ?drop log =
  let installs = ref [] in
  let guard = ref 0 in
  while Delta_log.compaction_pending log do
    incr guard;
    if !guard > 10_000 then Alcotest.fail "compaction never drains";
    match Delta_log.compact_step ?drop log ~max_pages:1 with
    | Delta_log.Idle -> Alcotest.fail "pending but idle"
    | Delta_log.Worked -> ()
    | Delta_log.Installed i -> installs := i :: !installs
  done;
  List.rev !installs

let scanned_roots ?lo ?hi log =
  let out = ref [] in
  Delta_log.scan_range ?lo ?hi log (fun r -> out := r.Delta_log.ids.(0) :: !out);
  List.rev !out

let test_spill_and_merge () =
  let log = make_log (flash ()) in
  append_ids log 1 40;
  check Alcotest.bool "spill pending" true (Delta_log.compaction_pending log);
  let installs = drain log in
  check Alcotest.bool "something installed" true (installs <> []);
  check Alcotest.bool "first install is a spill" true
    (List.hd installs).Delta_log.inst_spill;
  check Alcotest.bool "has runs" true (Delta_log.has_runs log);
  check Alcotest.int "nothing dropped" 0 (Delta_log.dropped_records log);
  check Alcotest.int "count monotonic" 40 (Delta_log.count log);
  check Alcotest.int "physical intact" 40 (Delta_log.physical_records log);
  check Alcotest.(list int) "scan in id order" (List.init 40 (fun i -> i + 1))
    (scanned_roots log);
  (* more appends force further spills, and fanout 2 forces merges *)
  append_ids log 41 120;
  let installs2 = drain log in
  check Alcotest.bool "a merge happened" true
    (List.exists (fun i -> not i.Delta_log.inst_spill) installs2);
  check Alcotest.bool "merge output is deeper" true
    (List.exists (fun i -> i.Delta_log.inst_level >= 2) installs2);
  check Alcotest.(list int) "scan order after merges"
    (List.init 120 (fun i -> i + 1))
    (scanned_roots log);
  check Alcotest.bool "dead bytes from superseded inputs" true
    (Delta_log.dead_bytes log > 0)

let test_fenced_scan () =
  let log = make_log (flash ()) in
  append_ids log 1 120;
  ignore (drain log);
  (* a narrow fence emits a superset of the range, but far fewer pages
     than the whole log *)
  let hits = scanned_roots ~lo:50 ~hi:55 log in
  List.iter
    (fun id ->
       if not (List.mem id hits) then Alcotest.failf "id %d missing from fence" id)
    [ 50; 51; 52; 53; 54; 55 ];
  check Alcotest.bool "fence skips pages" true (List.length hits < 120);
  check Alcotest.bool "superset only from overlapping pages" true
    (List.for_all (fun id -> id >= 1 && id <= 120) hits);
  (* unbounded range is the full scan *)
  check Alcotest.int "unbounded = full" 120 (List.length (scanned_roots log))

let test_tombstone_folding () =
  let log = make_log (flash ()) in
  append_ids log 1 60;
  let dropped id = id mod 2 = 0 in
  let installs = drain ~drop:dropped log in
  let folded = List.fold_left (fun a i -> a + i.Delta_log.inst_dropped) 0 installs in
  check Alcotest.bool "tombstoned records folded" true (folded > 0);
  check Alcotest.int "dropped accounted" folded (Delta_log.dropped_records log);
  check Alcotest.int "count still monotonic" 60 (Delta_log.count log);
  check Alcotest.int "physical shrinks" (60 - folded) (Delta_log.physical_records log);
  List.iter
    (fun id ->
       if dropped id && List.mem id (scanned_roots log) && id <= 60 - 10 then
         (* the L0 tail may retain recent tombstoned records; spilled
            even ids must be gone *)
         Alcotest.failf "folded id %d still scanned" id)
    (List.init 40 (fun i -> i + 1))

(* ---- two-stream runs ---- *)

(* The rows of a scan, in order; an id-only scan's carry no values. *)
let scan_rows ?lo ?hi ~values log =
  let out = ref [] in
  Delta_log.scan_range ?lo ?hi ~values log (fun r -> out := r :: !out);
  List.rev !out

let ids_of rows = List.map (fun r -> r.Delta_log.ids) rows

(* A spill of 16 records programs three pages: the first value page
   when it fills (14 values), then the seal, which programs each
   stream's final page, the id stream's first. A cut at any of them
   leaves the run uninstalled, with the pages programmed before the
   cut dead, and recovery rolls the log back to its inputs; a run is
   installed, and rolled forward, only once both final pages are
   sealed. *)
let test_seal_of_both_streams () =
  let setup () =
    let f = flash () in
    let log = make_log f in
    append_ids log 1 17;  (* two full L0 pages of 8: one spill of 16 *)
    (f, log)
  in
  let programs =
    let f, log = setup () in
    let before = (Flash.stats f).Flash.page_programs in
    (match drain log with
     | [ i ] -> check Alcotest.int "one id page and two value pages" 3 i.Delta_log.inst_pages
     | _ -> Alcotest.fail "expected one install");
    let r = Delta_log.recover log in
    check Alcotest.int "the installed run validates" 0 r.Delta_log.torn_pages;
    check Alcotest.int "and rolls forward" 1 (Delta_log.run_count log);
    (Flash.stats f).Flash.page_programs - before
  in
  check Alcotest.int "three programs" 3 programs;
  (* payload bytes programmed before each cut: nothing, the first value
     page, then that page and the sealed id page, whose 16 records pack
     into 10 bits each (keys 1..16 as 4-bit offsets, then ids up to 6
     and 4 in 3 bits each) *)
  let dead_before = [| 0; 14 * 16; (14 * 16) + ((16 * 10) + 7) / 8 |] in
  for k = 1 to programs do
    let f, log = setup () in
    let rows = scan_rows ~values:true log in
    let dead = Delta_log.dead_bytes log in
    Flash.arm_power_cut f ~after_programs:k;
    (try
       ignore (drain log);
       Alcotest.failf "cut at program %d never fired" k
     with Flash.Power_cut _ -> ());
    let r = Delta_log.recover log in
    let what = Printf.sprintf "cut at program %d: " k in
    check Alcotest.int (what ^ "no run installed") 0 (Delta_log.run_count log);
    check Alcotest.int (what ^ "nothing lost") 0 r.Delta_log.lost;
    check Alcotest.bool (what ^ "rows as before") true (scan_rows ~values:true log = rows);
    check Alcotest.int (what ^ "the partial output is dead") (dead + dead_before.(k - 1))
      (Delta_log.dead_bytes log);
    ignore (drain log);
    check Alcotest.int (what ^ "the rebuild installs") 1 (Delta_log.run_count log);
    check Alcotest.bool (what ^ "rows after the rebuild") true
      (scan_rows ~values:true log = rows)
  done

(* Random appends, tombstones (compaction's drop set), compaction
   slices and power cuts on a leveled log. After every step an id-only
   scan, fenced or not, returns exactly the ids, in the same order, of
   the scan that reads values; every row read with values carries the
   values appended for its id; and every acknowledged record compaction
   has not folded away is there. A power cut inside a compaction slice
   rolls the in-flight build back: the runs after recovery are exactly
   those installed before the slice. *)
let run_two_stream_case seed =
  let rng = Rng.create (seed lxor 0x2b5c3d) in
  let f = flash () in
  let log = make_log f in
  let acked = Hashtbl.create 64 in
  let tombstoned = Hashtbl.create 16 in
  let next = ref 1 in
  let ok = ref true in
  let fail fmt =
    Printf.ksprintf (fun m -> Printf.printf "TWO-STREAM seed=%d: %s\n" seed m; ok := false) fmt
  in
  let check_scans () =
    let fences =
      (None, None)
      :: List.init 2 (fun _ ->
        let lo = Rng.int_in rng 1 (max 1 !next) in
        (Some lo, Some (lo + Rng.int rng 20)))
    in
    List.iter
      (fun (lo, hi) ->
         let full = scan_rows ?lo ?hi ~values:true log in
         if ids_of (scan_rows ?lo ?hi ~values:false log) <> ids_of full then
           fail "id-only scan differs from the full scan";
         List.iter
           (fun r ->
              let id = r.Delta_log.ids.(0) in
              if not (Hashtbl.mem acked id) then fail "unacknowledged id %d scanned" id
              else if r <> row_of id then fail "id %d carries wrong values" id)
           full;
         let got = List.map (fun r -> r.Delta_log.ids.(0)) full in
         if List.sort_uniq compare got <> got then fail "scan out of order";
         let in_fence id =
           id >= Option.value ~default:min_int lo && id <= Option.value ~default:max_int hi
         in
         Hashtbl.iter
           (fun id () ->
              if in_fence id && (not (Hashtbl.mem tombstoned id)) && not (List.mem id got) then
                fail "acknowledged id %d missing" id)
           acked)
      fences
  in
  let recover_after_cut ~runs_before =
    let r = Delta_log.recover log in
    if r.Delta_log.recovered <> Delta_log.physical_records log then
      fail "recovered %d, physical %d" r.Delta_log.recovered (Delta_log.physical_records log);
    match runs_before with
    | Some before ->
      let now = (Delta_log.run_count log, Delta_log.run_pages log, Delta_log.run_records log) in
      if now <> before then fail "a cut compaction did not roll back to its inputs"
    | None -> ()
  in
  for _ = 1 to 24 do
    let cut = Rng.int rng 5 = 0 in
    if cut then Flash.arm_power_cut f ~after_programs:(Rng.int_in rng 1 3);
    (match Rng.int rng 4 with
     | 0 | 1 ->
       let n = Rng.int_in rng 1 12 in
       let batch = List.init n (fun i -> row_of (!next + i)) in
       let before = Delta_log.acknowledged log in
       (try Delta_log.append log batch
        with Flash.Power_cut _ -> recover_after_cut ~runs_before:None);
       let durable = Delta_log.acknowledged log - before in
       List.iteri (fun i r -> if i < durable then Hashtbl.replace acked r.Delta_log.ids.(0) ()) batch;
       next := !next + durable
     | 2 ->
       if !next > 1 then Hashtbl.replace tombstoned (Rng.int_in rng 1 (!next - 1)) ()
     | _ ->
       let runs_before =
         Some (Delta_log.run_count log, Delta_log.run_pages log, Delta_log.run_records log)
       in
       (try
          ignore
            (Delta_log.compact_step ~drop:(Hashtbl.mem tombstoned) log
               ~max_pages:(Rng.int_in rng 1 3))
        with Flash.Power_cut _ -> recover_after_cut ~runs_before));
    Flash.disarm_power_cut f;
    check_scans ()
  done;
  !ok

let prop_two_stream =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"two-stream runs: id-only scans = full scans, cuts roll back"
       ~count:60
       QCheck.(int_range 0 1_000_000)
       run_two_stream_case)

(* ---- packed id pages ---- *)

let run_rows f run =
  let got = ref [] in
  Log_run.iter f run (fun ids vb voff ->
      got := (Array.to_list ids, Bytes.sub_string vb voff run.Log_run.value_bytes) :: !got);
  List.rev !got

(* An id that does not fit its width is refused whole, before anything
   is buffered or programmed; the widest ids that fit read back
   intact. *)
let test_id_overflow_refused () =
  let f = flash () in
  let b = Log_run.start f ~id_widths:[| 4; 3 |] ~value_bytes:2 ~level:1 in
  Log_run.add b ~ids:[| 100; 7 |] ~values:"ab";
  let refuse what ids =
    match Log_run.add b ~ids ~values:"cd" with
    | () -> Alcotest.failf "%s was packed" what
    | exception Invalid_argument _ -> ()
  in
  refuse "an id of 8 in 3 bits" [| 101; 8 |];
  refuse "a key 16 past the first in 4 bits" [| 116; 0 |];
  check Alcotest.int "nothing buffered" 1 (Log_run.built_count b);
  Log_run.add b ~ids:[| 115; 0 |] ~values:"ef";
  let run = Log_run.seal b in
  check
    Alcotest.(list (pair (list int) string))
    "the widest fields read back whole"
    [ ([ 100; 7 ], "ab"); ([ 115; 0 ], "ef") ]
    (run_rows f run);
  let log = make_log f in
  let programs = (Flash.stats f).Flash.page_programs in
  (match Delta_log.append log [ { (row_of 1) with Delta_log.ids = [| 1; 7; 0 |] } ] with
   | () -> Alcotest.fail "an id above its level's largest was appended"
   | exception Invalid_argument _ -> ());
  check Alcotest.int "nothing programmed" programs (Flash.stats f).Flash.page_programs;
  check Alcotest.int "nothing appended" 0 (Delta_log.count log)

(* Random widths (1 to 32 bits, 1 to 6 fields) and page sizes: every
   id page but the last holds a packed page's worth of records, never
   fewer than an id page of u32 fields would, and the run reads back
   the records it was given. *)
let prop_packed_pages =
  let gen =
    QCheck.Gen.(
      int_range 80 1024 >>= fun page_size ->
      list_size (int_range 1 6) (int_range 1 32) >>= fun widths ->
      let widths = Array.of_list widths in
      int_range 1 300 >>= fun n ->
      let field w = int_range 0 ((1 lsl w) - 1) in
      list_repeat n (flatten_l (List.map field (Array.to_list widths))) >>= fun recs ->
      (* keys stay u32 *)
      int_range 0 (min 1_000 ((1 lsl 32) - (1 lsl widths.(0)))) >|= fun base ->
      (page_size, widths, base, recs))
  in
  QCheck.Test.make ~name:"packed id pages: never fewer records, exact round trip" ~count:150
    (QCheck.make gen)
    (fun (page_size, widths, base, recs) ->
       let f = Flash.create ~geometry:{ Flash.page_size; pages_per_block = 8 } () in
       (* the key field packs its offset from the first key *)
       let recs = List.sort compare recs in
       let first = List.hd (List.hd recs) in
       let recs =
         List.map (fun ids -> Array.of_list ((base + List.hd ids - first) :: List.tl ids)) recs
       in
       let value i = String.make 1 (Char.chr (i land 255)) in
       let b = Log_run.start f ~id_widths:widths ~value_bytes:1 ~level:1 in
       List.iteri (fun i ids -> Log_run.add b ~ids ~values:(value i)) recs;
       let run = Log_run.seal b in
       let packed = Log_run.records_per_page f ~record_bits:(Array.fold_left ( + ) 0 widths) in
       let unpacked = Log_run.records_per_page f ~record_bits:(32 * Array.length widths) in
       let last = Array.length run.Log_run.id_pages - 1 in
       packed >= unpacked
       && Array.for_all Fun.id
            (Array.mapi (fun i m -> i = last || m.Log_run.pp_count = packed) run.Log_run.id_pages)
       && run_rows f run = List.mapi (fun i ids -> (Array.to_list ids, value i)) recs)

(* ---- end to end ---- *)

let scale = Medical.tiny

let new_prescriptions ?(seed = 5) db n =
  Medical.new_prescriptions scale (Rng.create seed)
    ~first:(scale.Medical.prescriptions + Ghost_db.delta_count db + 1) n

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let check_all_queries ?(tag = "") db reference =
  List.iter
    (fun (name, sql) ->
       let got = (Ghost_db.query db sql).Exec.rows in
       let want = (Ghost_db.query reference sql).Exec.rows in
       if not (rows_equal got want) then
         Alcotest.failf "%s%s differs from flat reference" tag name)
    Queries.all

(* Identical mutations on a leveled and a flat instance. *)
let make_pair () =
  let rows = Medical.generate scale in
  let db = Ghost_db.of_schema ~device_config:runs_config (Medical.schema ()) rows in
  let flat = Ghost_db.of_schema ~device_config:flat_config (Medical.schema ()) rows in
  let mutate d =
    Ghost_db.insert d (new_prescriptions d 60);
    Ghost_db.delete d [ 2; 5; 9; scale.Medical.prescriptions + 7 ];
    Ghost_db.insert d (new_prescriptions ~seed:9 d 25)
  in
  mutate db;
  mutate flat;
  (db, flat)

let test_merge_on_read_equivalence () =
  let db, flat = make_pair () in
  check Alcotest.bool "compaction pending after inserts" true
    (Ghost_db.compaction_pending db);
  (* answers agree before, during and after compaction *)
  check_all_queries ~tag:"pre-compaction " db flat;
  Ghost_db.compact db;
  check Alcotest.bool "drained" false (Ghost_db.compaction_pending db);
  let f = Device.fault_counters (Ghost_db.device db) in
  check Alcotest.bool "spills counted" true (Device.count f Device.Log_spills > 0);
  check_all_queries ~tag:"post-compaction " db flat;
  (* a tombstoned, already-spilled record was folded away *)
  let log =
    match Catalog.delta (Ghost_db.catalog db) "Prescription" with
    | Some l -> l
    | None -> Alcotest.fail "no delta log"
  in
  check Alcotest.bool "fold shrank the physical log" true
    (Delta_log.physical_records log < Delta_log.count log);
  (* reorganization folds the leveled log exactly like the flat one *)
  let db2 = Ghost_db.reorganize db in
  let flat2 = Ghost_db.reorganize flat in
  check Alcotest.int "delta folded" 0 (Ghost_db.delta_count db2);
  check_all_queries ~tag:"post-reorg " db2 flat2

(* Every log is leveled, but nothing compacts it unless asked: on the
   default device, inserts filling more L0 pages than the spill
   threshold, and queries over them, install no run, so the log reads
   exactly the pages of the paper's append-only log. [Ghost_db.compact]
   then spills it into runs, and every panel plan of every query still
   returns the reference rows. *)
let test_default_device_compacts_on_demand () =
  let rows = Medical.generate scale in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  let rng = Rng.create 3 in
  let insert_batch () =
    let first = scale.Medical.prescriptions + Ghost_db.delta_count db + 1 in
    let batch = Medical.new_prescriptions scale rng ~first 100 in
    Ghost_db.insert db batch;
    batch
  in
  let inserted = List.concat (List.init 4 (fun _ -> insert_batch ())) in
  let log = Option.get (Catalog.delta (Ghost_db.catalog db) "Prescription") in
  (* L0 pages counts the tail: one more page than the full ones *)
  let spill = Device.default_log_runs.Device.l0_spill_pages in
  check Alcotest.bool "more full L0 pages than the spill threshold" true
    (Delta_log.l0_pages log - 1 > spill);
  List.iter (fun (_, sql) -> ignore (Ghost_db.query db sql)) Queries.all;
  check Alcotest.int "no run before compact" 0 (Delta_log.run_count log);
  check Alcotest.bool "the spill waits for compact" true (Ghost_db.compaction_pending db);
  Ghost_db.compact db;
  check Alcotest.bool "compact installs runs" true (Delta_log.run_count log > 0);
  let schema = Ghost_db.schema db in
  let reference =
    Reference.db_of_rows schema
      (List.map
         (fun (t, rs) -> (t, if t = "Prescription" then rs @ inserted else rs))
         rows)
  in
  List.iter
    (fun (name, sql) ->
       let want = Reference.sort_rows (Reference.run schema reference (Ghost_db.bind db sql)) in
       List.iter
         (fun (plan, _) ->
            let got = (Ghost_db.run_plan db plan).Exec.rows in
            if Reference.sort_rows got <> want then
              Alcotest.failf "%s, plan [%s]: %d rows, reference %d" name
                plan.Ghostdb.Plan.label (List.length got) (List.length want))
         (Ghost_db.plans db sql))
    Queries.all

(* Run widths are public. Two devices share a public history — the
   same root ids inserted in the same batches with the same visible
   Frequency, the same deletes, the same compaction slices — but not
   their hidden foreign keys and values: in one every VisID is at most
   100, in the other they spread to 2,500 (Visit's cardinality). Their
   runs fill the same pages, and a Full DeltaScan reads as many pages
   on the same clock. *)
let test_public_widths () =
  let scale = { Medical.tiny with Medical.visits = 2_500 } in
  let rows = Medical.generate scale in
  let make ~spread ~seed =
    let db = Ghost_db.of_schema ~device_config:runs_config (Medical.schema ()) rows in
    let rng = Rng.create seed in
    let compactor = Compaction.create (Ghost_db.catalog db) in
    for batch = 0 to 9 do
      let next = scale.Medical.prescriptions + Ghost_db.delta_count db + 1 in
      Ghost_db.insert db
        (List.init 24 (fun i ->
           let k = (batch * 24) + i in
           [|
             Value.Int (next + i);
             Value.Int (Rng.int_in rng 1 10);
             Value.Int (1 + (k mod 4));
             Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
             Value.Int (1 + Rng.int rng scale.Medical.medicines);
             Value.Int (if spread then 1 + (k * 997 mod 2_500) else 1 + (k mod 100));
           |]));
      Ghost_db.delete db [ next + (batch mod 24) ];
      for _ = 1 to 3 do
        ignore (Compaction.step compactor)
      done
    done;
    db
  in
  let narrow = make ~spread:false ~seed:1 and wide = make ~spread:true ~seed:2 in
  let log db = Option.get (Catalog.delta (Ghost_db.catalog db) "Prescription") in
  let shape db =
    let l = log db in
    [ Delta_log.run_count l; Delta_log.run_pages l; Delta_log.run_id_pages l;
      Delta_log.l0_pages l ]
  in
  check Alcotest.bool "the history leaves runs" true (Delta_log.run_count (log narrow) > 1);
  check Alcotest.(list int) "runs, run pages, id pages, L0 pages" (shape narrow) (shape wide);
  let delta_scan db =
    let sql =
      "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = 'Sclerosis' \
       AND Vis.VisID = Pre.VisID"
    in
    let plan = Planner.oblivious (Ghost_db.catalog db) (Ghost_db.bind db sql) in
    let op =
      List.find (fun o -> o.Exec.op_label = "DeltaScan") (Ghost_db.run_plan db plan).Exec.ops
    in
    (op.Exec.usage.Device.flash_page_reads, op.Exec.usage.Device.total_us)
  in
  let reads, clock = delta_scan narrow in
  let reads', clock' = delta_scan wide in
  check Alcotest.int "Full DeltaScan page reads" reads reads';
  check (Alcotest.float 0.) "Full DeltaScan clock" clock clock'

let test_image_roundtrip_mid_compaction () =
  let db, flat = make_pair () in
  (* leave a compaction unit in flight: its state must be plain data *)
  let log =
    match Catalog.delta (Ghost_db.catalog db) "Prescription" with
    | Some l -> l
    | None -> Alcotest.fail "no delta log"
  in
  (match Delta_log.compact_step log ~max_pages:1 with
   | Delta_log.Worked -> ()
   | Delta_log.Idle | Delta_log.Installed _ ->
     Alcotest.fail "expected an in-flight unit");
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "ghostdb_test_lsm.img"
  in
  Ghost_db.save_image db path;
  let reopened = Ghost_db.load_image path in
  Sys.remove path;
  check_all_queries ~tag:"reloaded mid-compaction " reopened flat;
  Ghost_db.compact reopened;
  check Alcotest.bool "resumed to quiescence" false
    (Ghost_db.compaction_pending reopened);
  check_all_queries ~tag:"reloaded compacted " reopened flat

(* Every Flash program compaction issues is a crash point: tear each
   one in turn; recovery must roll the log forward or back to a state
   that answers exactly like the untouched flat twin, and compaction
   must then run to completion. Compaction programs nothing but run
   pages of both streams (no erase recycles a page here), so the sweep
   cuts at every id-page and every value-page program. *)
let test_crash_point_sweep () =
  let programs_of_full_compaction () =
    let db, _ = make_pair () in
    let flash = Device.flash (Ghost_db.device db) in
    let before = (Flash.stats flash).Flash.page_programs in
    let high = Flash.page_count flash in
    Ghost_db.compact db;
    let tags =
      List.init (Flash.page_count flash - high) (fun i ->
        Bytes.sub_string (Flash.read_page flash (high + i)) 0 4)
    in
    let count tag = List.length (List.filter (( = ) tag) tags) in
    ((Flash.stats flash).Flash.page_programs - before, count "GDRN", count "GDRV")
  in
  let total, id_pages, value_pages = programs_of_full_compaction () in
  check Alcotest.bool "compaction programs pages of both streams" true
    (id_pages > 0 && value_pages > 0);
  check Alcotest.int "every program is a run page" total (id_pages + value_pages);
  for k = 1 to total do
    let db, flat = make_pair () in
    let flash = Device.flash (Ghost_db.device db) in
    Flash.arm_power_cut flash ~after_programs:k;
    (try
       Ghost_db.compact db;
       Alcotest.failf "crash point %d/%d never fired" k total
     with Flash.Power_cut _ -> ());
    if not (Ghost_db.needs_recovery db) then
      Alcotest.failf "crash point %d: recovery not flagged" k;
    ignore (Ghost_db.recover db);
    check_all_queries ~tag:(Printf.sprintf "crash %d recovered " k) db flat;
    Ghost_db.compact db;
    if Ghost_db.compaction_pending db then
      Alcotest.failf "crash point %d: compaction did not drain" k;
    check_all_queries ~tag:(Printf.sprintf "crash %d compacted " k) db flat
  done

let test_scheduler_coexistence () =
  let db, flat = make_pair () in
  let sched =
    Scheduler.create ~quantum_us:500. (Ghost_db.catalog db) (Ghost_db.public db)
  in
  let scrub =
    Scrub.create (Ghost_db.device db)
      ~pages:(Catalog.structure_pages (Ghost_db.catalog db))
  in
  Scheduler.set_scrubber sched (Some scrub);
  let compactor = Compaction.create (Ghost_db.catalog db) in
  Scheduler.set_compactor sched (Some compactor);
  let sql = "SELECT COUNT(*) FROM Prescription Pre" in
  let ids =
    List.map (fun p -> Scheduler.submit sched p) (List.map fst (Ghost_db.plans db sql))
  in
  (* [run] drains queries, then alternates idle slices between scrub
     and compaction until both are quiet *)
  Scheduler.run sched;
  check Alcotest.bool "compactor drained" true (Compaction.idle compactor);
  check Alcotest.bool "scrub pass done" true (Scrub.idle scrub);
  check Alcotest.bool "compaction progressed" true
    ((Compaction.progress compactor).Compaction.spills > 0);
  let expected = (Ghost_db.query flat sql).Exec.rows in
  List.iter
    (fun id ->
       match Scheduler.outcome sched id with
       | Some (Scheduler.Completed r) ->
         if not (rows_equal r.Exec.rows expected) then
           Alcotest.fail "scheduled query differs from flat reference"
       | _ -> Alcotest.fail "session did not complete")
    ids;
  check_all_queries ~tag:"after scheduler " db flat

(* ---- randomized interleaving property ---- *)

let run_interleaving_case seed =
  let rng = Rng.create (seed lxor 0x1f2e3d) in
  let tables = Test_random_schema.random_tables rng in
  let schema = Test_random_schema.schema_of_tables tables in
  let rows = Test_random_schema.random_rows rng tables in
  let root = tables.(0) in
  let device_config =
    {
      Device.default_config with
      Device.flash_geometry = small_geometry;
      log_runs = Some { Device.l0_spill_pages = 2; run_fanout = 2 };
    }
  in
  let db = Ghost_db.of_schema ~device_config schema rows in
  let compactor = Compaction.create (Ghost_db.catalog db) in
  let inserted = ref [] in  (* newest first *)
  let deleted = ref [] in
  let n_base = root.Test_random_schema.gt_rows in
  let fresh_root_row id =
    let attrs =
      List.map
        (fun gc ->
           match gc.Test_random_schema.gc_refs with
           | Some target ->
             let n =
               (Array.to_list tables
                |> List.find (fun t -> t.Test_random_schema.gt_name = target))
                 .Test_random_schema.gt_rows
             in
             Value.Int (Rng.int_in rng 1 n)
           | None -> Test_random_schema.random_value rng gc.Test_random_schema.gc_ty)
        root.Test_random_schema.gt_cols
    in
    Array.of_list (Value.Int id :: attrs)
  in
  let ok = ref true in
  let live_reference () =
    let root_rows =
      (List.assoc root.Test_random_schema.gt_name rows @ List.rev !inserted)
      |> List.filter (fun r ->
          match r.(0) with
          | Value.Int id -> not (List.mem id !deleted)
          | _ -> false)
    in
    Reference.db_of_rows schema
      (List.map
         (fun (name, rs) ->
            if name = root.Test_random_schema.gt_name then (name, root_rows)
            else (name, rs))
         rows)
  in
  let run_query () =
    let sql, ordered = Test_random_schema.random_query rng schema in
    let q =
      try Ghost_db.bind db sql
      with e ->
        Printf.printf "BIND FAILURE seed=%d on %s\n" seed sql;
        raise e
    in
    let expected = Reference.run schema (live_reference ()) q in
    let r = Ghost_db.query db sql in
    let same =
      if ordered then r.Exec.rows = expected
      else Test_random_schema.rows_equal r.Exec.rows expected
    in
    if not same then begin
      Printf.printf "LSM MISMATCH seed=%d sql=%s got=%d want=%d\n" seed sql
        (List.length r.Exec.rows) (List.length expected);
      ok := false
    end
  in
  for _ = 1 to 14 do
    match Rng.int rng 4 with
    | 0 ->
      let n = Rng.int_in rng 1 6 in
      let next = n_base + List.length !inserted + 1 in
      let batch = List.init n (fun i -> fresh_root_row (next + i)) in
      Ghost_db.insert db batch;
      inserted := List.rev batch @ !inserted
    | 1 ->
      let top = n_base + List.length !inserted in
      let doomed =
        List.init (Rng.int_in rng 1 3) (fun _ -> Rng.int_in rng 1 top)
        |> List.filter (fun id -> not (List.mem id !deleted))
        |> List.sort_uniq compare
      in
      if doomed <> [] then begin
        Ghost_db.delete db doomed;
        deleted := doomed @ !deleted
      end
    | 2 -> ignore (Compaction.step compactor)
    | _ -> run_query ()
  done;
  (* settle: drain compaction, then every query shape must still match *)
  Compaction.run_pending compactor;
  run_query ();
  run_query ();
  let verdict = Ghost_db.audit db in
  if not verdict.Ghostdb.Privacy.ok then begin
    Printf.printf "PRIVACY VIOLATION seed=%d\n" seed;
    ok := false
  end;
  !ok

let prop_interleaving =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random schemas: interleaved mutations + compaction = reference"
       ~count:25
       QCheck.(int_range 0 1_000_000)
       run_interleaving_case)

let suite =
  [
    Alcotest.test_case "spill and merge mechanics" `Quick test_spill_and_merge;
    Alcotest.test_case "fenced scan skips pages" `Quick test_fenced_scan;
    Alcotest.test_case "tombstone folding" `Quick test_tombstone_folding;
    Alcotest.test_case "default device: runs only after compact" `Quick
      test_default_device_compacts_on_demand;
    Alcotest.test_case "merge-on-read = flat reference" `Quick
      test_merge_on_read_equivalence;
    Alcotest.test_case "image roundtrip mid-compaction" `Quick
      test_image_roundtrip_mid_compaction;
    Alcotest.test_case "crash-point sweep over compaction" `Quick
      test_crash_point_sweep;
    Alcotest.test_case "scheduler: compaction + scrubbing coexist" `Quick
      test_scheduler_coexistence;
    prop_interleaving;
    Alcotest.test_case "a run installs once both streams are sealed" `Quick
      test_seal_of_both_streams;
    prop_two_stream;
    Alcotest.test_case "run widths are public: hidden keys move no page" `Quick
      test_public_widths;
    Alcotest.test_case "an id that does not fit its width is refused" `Quick
      test_id_overflow_refused;
    QCheck_alcotest.to_alcotest prop_packed_pages;
  ]
