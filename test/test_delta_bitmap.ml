(* Predicate bitmaps. Rows inserted since the load live in the delta
   log, outside the climbing indexes. DeltaScan tests an indexed hidden
   predicate on a table below the root ({!Plan.delta_bitmap}) against a
   RAM bitmap of that table's matching ids, filled from the index's
   lists at the table's own level, instead of reading the column once
   per record; when the arena cannot hold the bitmap it reads the
   column as before. Under [Full] every hidden predicate below the root
   tests a bitmap filled by one paged scan of its column, in BoundScan
   and DeltaScan alike, and BoundScan reads the SKT by pages. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Skt = Ghost_store.Skt
module Column_store = Ghost_store.Column_store
module Predicate = Ghost_relation.Predicate
module Oblivious = Ghost_oblivious.Oblivious
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Delta_log = Ghostdb.Delta_log
module Planner = Ghostdb.Planner
module Plan = Ghostdb.Plan
module Exec = Ghostdb.Exec

let check = Alcotest.check

let count_purpose purpose =
  Printf.sprintf
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = '%s' AND \
     Vis.VisID = Pre.VisID"
    purpose

let count_bmi bmi =
  Printf.sprintf
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
     Pat.BodyMassIndex >= %s AND Vis.PatID = Pat.PatID AND Pre.VisID = Vis.VisID"
    bmi

(* The hidden joins of the workload, and ghostbench write_mix's two
   COUNT( * ) joins. *)
let queries =
  [
    ("hidden_only", List.assoc "hidden_only" Queries.all);
    ("demo", Queries.demo);
    ("five_way", List.assoc "five_way" Queries.all);
    ("count_purpose", count_purpose "Sclerosis");
    ("count_bmi", count_bmi "30.00");
  ]

(* Leveled logs: small pages at tiny scale, so its few inserts spill
   into sorted runs; write_mix's device at small scale. *)
let tiny_leveled =
  {
    Device.default_config with
    Device.flash_geometry = { Flash.page_size = 256; pages_per_block = 8 };
    log_runs = Some { Device.l0_spill_pages = 2; run_fanout = 2 };
  }

let small_leveled = { Device.default_config with log_runs = Some Device.default_log_runs }

(* A database and the rows it holds, kept in step with its inserts and
   deletes so the reference evaluator can be rebuilt at any point. *)
type state = {
  db : Ghost_db.t;
  mutable rows : (string * Value.t array list) list;
  mutable next : int;
}

let load ?device_config scale =
  let rows = Medical.generate scale in
  let db = Ghost_db.of_schema ?device_config (Medical.schema ()) rows in
  { db; rows; next = scale.Medical.prescriptions + 1 }

let prescriptions st f =
  st.rows <-
    List.map (fun (t, rs) -> (t, if t = "Prescription" then f rs else rs)) st.rows

let insert st scale rng n =
  let batch = Medical.new_prescriptions scale rng ~first:st.next n in
  Ghost_db.insert st.db batch;
  st.next <- st.next + n;
  prescriptions st (fun rs -> rs @ batch)

let delete st ids =
  Ghost_db.delete st.db ids;
  prescriptions st
    (List.filter (fun row ->
       match row.(0) with Value.Int id -> not (List.mem id ids) | _ -> true))

let reference st sql =
  let schema = Ghost_db.schema st.db in
  Reference.sort_rows
    (Reference.run schema (Reference.db_of_rows schema st.rows) (Ghost_db.bind st.db sql))

let find_op label (r : Exec.result) =
  match List.find_opt (fun o -> o.Exec.op_label = label) r.Exec.ops with
  | Some o -> o
  | None -> Alcotest.failf "no %s operator" label

let uses_bitmap (p : Plan.t) =
  List.exists
    (fun (g : Plan.group) ->
       List.exists (fun h -> Plan.delta_bitmap p g h <> None) g.Plan.g_hidden)
    p.Plan.groups

(* Every Off and Pad panel plan of [queries] returns the reference rows;
   counts the runs whose delta scan met records through a bitmap. *)
let check_panels st ~what =
  let bitmapped = ref 0 in
  List.iter
    (fun (qname, sql) ->
       let expected = reference st sql in
       List.iter
         (fun (plan, _) ->
            List.iter
              (fun mode ->
                 let p = Plan.with_mode plan mode in
                 let r = Ghost_db.run_plan st.db p in
                 if Reference.sort_rows r.Exec.rows <> expected then
                   Alcotest.failf "%s, %s: plan [%s] returned %d rows, reference %d" what
                     qname p.Plan.label (List.length r.Exec.rows) (List.length expected);
                 if uses_bitmap p && (find_op "DeltaScan" r).Exec.tuples_in > 0 then
                   incr bitmapped)
              [ Oblivious.Off; Oblivious.Pad ])
         (Ghost_db.plans st.db sql))
    queries;
  check Alcotest.bool (what ^ ": some delta scan used a bitmap") true (!bitmapped > 0)

(* Inserts, then deletes of loaded and inserted rows, then compaction,
   on the default device and on a leveled one with low thresholds; the
   panels are checked after each. *)
let rows_match_reference (scale : Medical.scale) ~leveled ~inserts () =
  List.iter
    (fun (log, device_config) ->
       let st = load ?device_config scale in
       let rng = Rng.create 11 in
       let first = st.next in
       List.iter (fun n -> insert st scale rng n) [ inserts / 2; inserts / 4; inserts / 4 ];
       check_panels st ~what:(log ^ " log after inserts");
       delete st [ 1; 7; 42; first + 3; first + (inserts / 2) ];
       check_panels st ~what:(log ^ " log after deletes");
       Ghost_db.compact st.db;
       check_panels st ~what:(log ^ " log after compaction");
       if device_config <> None then
         check Alcotest.bool "inserts spilled into sorted runs" true
           (Delta_log.run_count
              (Option.get (Catalog.delta (Ghost_db.catalog st.db) "Prescription"))
            > 0))
    [ ("default", None); ("leveled", Some leveled) ]

(* The indexed Purpose join of write_mix, its plan and its run. *)
let purpose_join st =
  let sql = count_purpose "Sclerosis" in
  let plan = Planner.all_pre (Ghost_db.catalog st.db) (Ghost_db.bind st.db sql) in
  check Alcotest.bool "the Purpose predicate is indexed" true (uses_bitmap plan);
  (sql, plan, Ghost_db.run_plan st.db plan)

let log_pages st =
  let log = Option.get (Catalog.delta (Ghost_db.catalog st.db) "Prescription") in
  Delta_log.l0_pages log + Delta_log.run_pages log

(* Growing the delta from 20 to 400 records adds the log's own pages
   to the scan, and nothing per record: the bitmap costs the same
   reads at any delta size. *)
let test_reads_grow_by_log_pages () =
  let scale = Medical.small in
  let st = load scale in
  let rng = Rng.create 5 in
  let scan () =
    let _, _, r = purpose_join st in
    let op = find_op "DeltaScan" r in
    (op.Exec.tuples_in, op.Exec.usage.Device.flash_page_reads, log_pages st)
  in
  insert st scale rng 20;
  let n0, reads0, pages0 = scan () in
  insert st scale rng 380;
  let n1, reads1, pages1 = scan () in
  check Alcotest.(pair int int) "records scanned" (20, 400) (n0, n1);
  if reads1 - reads0 > pages1 - pages0 then
    Alcotest.failf "DeltaScan page reads %d -> %d grew past the log's pages %d -> %d"
      reads0 reads1 pages0 pages1

(* The runs keep the root's hidden values on value pages: a scan of
   root ids reads the runs' id pages alone, one projecting Quantity
   reads both streams, and the Purpose join tests ids only. Rows equal
   the reference either way. *)
let test_id_only_scan_reads_id_pages () =
  let scale = Medical.tiny in
  let st = load ~device_config:tiny_leveled scale in
  let rng = Rng.create 8 in
  for _ = 1 to 5 do
    insert st scale rng 12
  done;
  Ghost_db.compact st.db;
  insert st scale rng 3;
  let log = Option.get (Catalog.delta (Ghost_db.catalog st.db) "Prescription") in
  check Alcotest.bool "the log has runs" true (Delta_log.run_count log > 0);
  let reads sql plan =
    let r = Ghost_db.run_plan st.db plan in
    check Alcotest.bool (sql ^ ": rows") true (Reference.sort_rows r.Exec.rows = reference st sql);
    check Alcotest.int (sql ^ ": every record scanned")
      (Delta_log.count log) (find_op "DeltaScan" r).Exec.tuples_in;
    (find_op "DeltaScan" r).Exec.usage.Device.flash_page_reads
  in
  let scan sql =
    let plan = Planner.all_pre (Ghost_db.catalog st.db) (Ghost_db.bind st.db sql) in
    (Plan.reads_delta_values (Ghost_db.schema st.db) plan, reads sql plan)
  in
  check Alcotest.(pair bool int) "an id scan reads L0 and the run id pages"
    (false, Delta_log.l0_pages log + Delta_log.run_id_pages log)
    (scan "SELECT Pre.PreID FROM Prescription Pre");
  check Alcotest.(pair bool int) "a Quantity scan reads every log page"
    (true, Delta_log.l0_pages log + Delta_log.run_pages log)
    (scan "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre");
  let sql, plan, _ = purpose_join st in
  check Alcotest.bool "the join needs no value page" false
    (Plan.reads_delta_values (Ghost_db.schema st.db) plan);
  ignore (reads sql plan : int)

let bitmap_bytes st table = (Catalog.table_count (Ghost_db.catalog st.db) table + 7) / 8

(* The bitmap is charged to the arena while the scan runs and freed
   with the plan. *)
let test_bitmap_in_arena () =
  let scale = Medical.small in
  let st = load scale in
  insert st scale (Rng.create 5) 40;
  let ram = Device.ram (Ghost_db.device st.db) in
  let before = Ram.in_use ram in
  let sql, _, r = purpose_join st in
  check Alcotest.bool "rows" true (Reference.sort_rows r.Exec.rows = reference st sql);
  check Alcotest.int "Ram.in_use back to its earlier value" before (Ram.in_use ram);
  let peak = (find_op "DeltaScan" r).Exec.ram_peak - before in
  let bytes = bitmap_bytes st "Visit" in
  if peak < bytes then
    Alcotest.failf "DeltaScan RAM peak %d B does not cover the %d-byte Visit bitmap" peak
      bytes

(* With the arena filled so that the bitmap cannot fit beside the
   lookup's readers, the scan reads the column per record and still
   returns the reference count. *)
let test_fallback_when_full () =
  let scale = Medical.small in
  let st = load scale in
  insert st scale (Rng.create 5) 40;
  let ram = Device.ram (Ghost_db.device st.db) in
  let bytes = bitmap_bytes st "Visit" in
  (* room for the bitmap and one 256-byte reader, not for the two
     directory readers of the lookup on top of the bitmap *)
  let free = bytes + 256 in
  let fill = Ram.alloc ram ~label:"test-fill" (Ram.budget ram - Ram.in_use ram - free) in
  let filled = Ram.in_use ram in
  let result =
    Fun.protect ~finally:(fun () -> Ram.free ram fill) (fun () -> purpose_join st)
  in
  let sql, _, r = result in
  check Alcotest.bool "reference rows" true
    (Reference.sort_rows r.Exec.rows = reference st sql);
  let peak = (find_op "DeltaScan" r).Exec.ram_peak - filled in
  if peak >= bytes then
    Alcotest.failf "DeltaScan held %d B over the fill: the %d-byte bitmap was built" peak
      bytes;
  check Alcotest.bool "the column was read" true
    ((find_op "DeltaScan" r).Exec.usage.Device.flash_page_reads > log_pages st)

(* Whether the bitmap is filled depends on the plan alone, and it never
   reaches the USB link: under [Pad], two hidden constants of the same
   length show the spy the same trace after inserts. *)
let test_pad_fingerprint_after_inserts () =
  let scale = Medical.tiny in
  let st = load scale in
  insert st scale (Rng.create 5) 30;
  let fingerprint sql =
    let plan =
      Plan.with_mode
        (Planner.all_pre (Ghost_db.catalog st.db) (Ghost_db.bind st.db sql))
        Oblivious.Pad
    in
    check Alcotest.bool (sql ^ ": bitmap") true (uses_bitmap plan);
    Ghost_db.clear_trace st.db;
    ignore (Ghost_db.run_plan st.db plan);
    Oblivious.fingerprint (Ghost_db.trace st.db)
  in
  check Alcotest.string "Purpose constants"
    (fingerprint (count_purpose "Sclerosis"))
    (fingerprint (count_purpose "Influenza"));
  check Alcotest.string "BodyMassIndex bounds"
    (fingerprint (count_bmi "30.00"))
    (fingerprint (count_bmi "25.00"))

(* {2 Under [Full]} *)

(* The fixed-shape plan [~oblivious:true] runs. *)
let full_plan st sql = Planner.oblivious (Ghost_db.catalog st.db) (Ghost_db.bind st.db sql)

let pages_of_column cat ~table ~column =
  List.length (Column_store.pages (Option.get (Catalog.column_store cat ~table ~column)))

(* BoundScan reads the SKT and each hidden predicate's column once, in
   id order, through page-aligned windows: its Flash reads stay within
   those segments' pages, plus one straddling read per segment. *)
let test_bound_scan_reads_by_pages () =
  let st = load Medical.tiny in
  let cat = Ghost_db.catalog st.db in
  List.iter
    (fun (qname, sql) ->
       let plan = full_plan st sql in
       let segments =
         (match Catalog.skt cat plan.Plan.root with
          | Some skt -> [ List.length (Skt.pages skt) ]
          | None -> [])
         @ List.concat_map
             (fun (g : Plan.group) ->
                List.map
                  (fun (h : Plan.hidden_pred) ->
                     pages_of_column cat ~table:g.Plan.g_table
                       ~column:h.Plan.h_pred.Predicate.column)
                  g.Plan.g_hidden)
             plan.Plan.groups
       in
       let bound = List.fold_left (fun acc pages -> acc + pages + 1) 0 segments in
       let scan = find_op "BoundScan" (Ghost_db.run_plan st.db plan) in
       let reads = scan.Exec.usage.Device.flash_page_reads in
       if reads > bound then
         Alcotest.failf "%s: BoundScan read %d pages, over the %d of its segments" qname
           reads bound)
    Queries.all

let page_size st =
  (Device.config (Ghost_db.device st.db)).Device.flash_geometry.Flash.page_size

let hidden_only purpose =
  Printf.sprintf
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
     '%s' AND Vis.VisID = Pre.VisID"
    purpose

(* With the arena filled so that Visit's bitmap and the column scan's
   page do not fit, BoundScan and DeltaScan read Visit.Purpose per row,
   as before bitmaps: the rows still equal the reference, and two
   Purpose constants of the same length still show the spy the same
   trace, page reads and clock. The query joins no visible stream, so
   it runs in what the fill leaves. *)
let test_full_fallback () =
  let probe purpose =
    let st = load Medical.tiny in
    insert st Medical.tiny (Rng.create 5) 20;
    let ram = Device.ram (Ghost_db.device st.db) in
    let free = bitmap_bytes st "Visit" + page_size st - 1 in
    let fill = Ram.alloc ram ~label:"test-fill" (Ram.budget ram - Ram.in_use ram - free) in
    let sql = hidden_only purpose in
    Ghost_db.clear_trace st.db;
    let r =
      Fun.protect ~finally:(fun () -> Ram.free ram fill) (fun () ->
        Ghost_db.run_plan st.db (full_plan st sql))
    in
    check Alcotest.bool (purpose ^ ": reference rows") true
      (Reference.sort_rows r.Exec.rows = reference st sql);
    let cat = Ghost_db.catalog st.db in
    let paged_bound =
      List.length (Skt.pages (Option.get (Catalog.skt cat "Prescription")))
      + pages_of_column cat ~table:"Visit" ~column:"Purpose"
      + 2
    in
    check Alcotest.bool (purpose ^ ": the column was read per row") true
      ((find_op "BoundScan" r).Exec.usage.Device.flash_page_reads > paged_bound);
    (Oblivious.fingerprint (Ghost_db.trace st.db), r)
  in
  let fp1, r1 = probe "Sclerosis" in
  let fp2, r2 = probe "Influenza" in
  check Alcotest.string "spy fingerprints" fp1 fp2;
  check Alcotest.int "page reads" r1.Exec.total.Device.flash_page_reads
    r2.Exec.total.Device.flash_page_reads;
  check Alcotest.int "cpu ops" r1.Exec.total.Device.used_cpu_ops
    r2.Exec.total.Device.used_cpu_ops;
  check (Alcotest.float 0.) "device clock" r1.Exec.elapsed_us r2.Exec.elapsed_us

(* A projection join whose hash table is over half the free arena
   takes the external sort. With under 4 KB free the sort's run buffer
   (half the free arena) and its 2,048-byte run write buffer could not
   both fit, and the query failed; the run buffer now leaves room for
   the write buffer, and the join hashes in RAM when the hash fits but
   the sort's smallest spill does not. *)
let test_full_tight_join () =
  List.iter
    (fun free ->
       let st = load Medical.tiny in
       insert st Medical.tiny (Rng.create 5) 20;
       let ram = Device.ram (Ghost_db.device st.db) in
       let fill = Ram.alloc ram ~label:"test-fill" (Ram.budget ram - Ram.in_use ram - free) in
       let r =
         Fun.protect ~finally:(fun () -> Ram.free ram fill) (fun () ->
           Ghost_db.run_plan st.db (full_plan st Queries.demo))
       in
       check Alcotest.bool (Printf.sprintf "%d B free: reference rows" free) true
         (Reference.sort_rows r.Exec.rows = reference st Queries.demo))
    [ 2_060; 3_000 ]

(* The demo query without its hidden predicate: the same joins and
   projections, so the same RAM in every operator but the bitmap. *)
let demo_without_purpose =
  Printf.sprintf
    {|SELECT Med.Name, Pre.Quantity, Vis.Date
FROM Medicine Med, Prescription Pre, Visit Vis
WHERE Vis.Date > '%s'
  AND Med.Type = 'Antibiotic'
  AND Med.MedID = Pre.MedID
  AND Vis.VisID = Pre.VisID|}
    (Ghost_kernel.Date.to_string (Medical.date_cutoff_for_selectivity 0.05))

(* Visit's bitmap is live from BoundScan through DeltaScan and gone
   before the first projection join, which so keeps the RAM it has
   without the predicate; the arena returns to its starting value. *)
let test_full_bitmap_lifetime () =
  let st = load Medical.tiny in
  insert st Medical.tiny (Rng.create 5) 20;
  let ram = Device.ram (Ghost_db.device st.db) in
  let before = Ram.in_use ram in
  let run sql = Ghost_db.run_plan st.db (full_plan st sql) in
  let r = run Queries.demo in
  check Alcotest.int "Ram.in_use back to its starting value" before (Ram.in_use ram);
  let bare = run demo_without_purpose in
  let first_join (r : Exec.result) =
    match
      List.find_opt
        (fun o -> String.starts_with ~prefix:"Project+Join" o.Exec.op_label)
        r.Exec.ops
    with
    | Some o -> o
    | None -> Alcotest.fail "no projection join"
  in
  check Alcotest.int "first Project+Join RAM peak, with and without the predicate"
    (first_join bare).Exec.ram_peak (first_join r).Exec.ram_peak;
  let held =
    (find_op "DeltaScan" r).Exec.ram_peak - (find_op "DeltaScan" bare).Exec.ram_peak
  in
  let bytes = bitmap_bytes st "Visit" in
  if held < bytes then
    Alcotest.failf
      "DeltaScan held %d B more than without the predicate, under the %d-byte bitmap" held
      bytes

let suite =
  [
    Alcotest.test_case "panel rows = reference after mutations (tiny)" `Quick
      (rows_match_reference Medical.tiny ~leveled:tiny_leveled ~inserts:60);
    Alcotest.test_case "panel rows = reference after mutations (small)" `Slow
      (rows_match_reference Medical.small ~leveled:small_leveled ~inserts:400);
    Alcotest.test_case "delta scan reads grow by log pages only" `Quick
      test_reads_grow_by_log_pages;
    Alcotest.test_case "id-only delta scans read the run id pages" `Quick
      test_id_only_scan_reads_id_pages;
    Alcotest.test_case "bitmap charged to the arena" `Quick test_bitmap_in_arena;
    Alcotest.test_case "full arena falls back to column reads" `Quick
      test_fallback_when_full;
    Alcotest.test_case "Pad fingerprint after inserts" `Quick
      test_pad_fingerprint_after_inserts;
    Alcotest.test_case "Full: BoundScan reads by pages" `Quick
      test_bound_scan_reads_by_pages;
    Alcotest.test_case "Full: fallback keeps rows and trace" `Quick test_full_fallback;
    Alcotest.test_case "Full: bitmap freed before the joins" `Quick
      test_full_bitmap_lifetime;
    Alcotest.test_case "Full: demo joins in a tight arena" `Quick test_full_tight_join;
  ]
