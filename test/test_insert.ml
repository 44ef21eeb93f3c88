(* Inserts after the load: delta-log correctness under every plan,
   validation, and Flash/privacy behaviour. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Schema = Ghost_relation.Schema
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan
module Insert = Ghostdb.Insert
module Catalog = Ghostdb.Catalog
module Skt = Ghost_store.Skt
module Baseline = Ghost_baseline.Baseline

let check = Alcotest.check

(* Fresh instance per test (inserts are stateful). *)
let make () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  (db, rows)

let scale = Medical.tiny

(* A deterministic batch of new prescriptions referencing loaded
   dimension rows. *)
let new_prescriptions ?(seed = 5) db n =
  Medical.new_prescriptions scale (Rng.create seed)
    ~first:(scale.Medical.prescriptions + Ghost_db.delta_count db + 1) n

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let test_insert_visible_through_queries () =
  let db, rows = make () in
  let batch = new_prescriptions db 30 in
  Ghost_db.insert db batch;
  check Alcotest.int "delta count" 30 (Ghost_db.delta_count db);
  (* expected = reference over the full data *)
  let full_rows =
    List.map
      (fun (name, rs) ->
         if name = "Prescription" then (name, rs @ batch) else (name, rs))
      rows
  in
  let refdb = Reference.db_of_rows (Ghost_db.schema db) full_rows in
  List.iter
    (fun (name, sql) ->
       let q = Ghost_db.bind db sql in
       let expected = Reference.run (Ghost_db.schema db) refdb q in
       let panel = Ghost_db.plans db sql in
       List.iter
         (fun (plan, _) ->
            let r = Ghost_db.run_plan db plan in
            if not (rows_equal r.Exec.rows expected) then
              Alcotest.failf "%s with delta: plan [%s] got %d rows, want %d" name
                plan.Plan.label r.Exec.row_count (List.length expected);
            check Alcotest.int "ram released" 0
              (Ram.in_use (Device.ram (Ghost_db.device db))))
         panel)
    Queries.all

let test_insert_aggregates_see_delta () =
  let db, _ = make () in
  let count_sql = "SELECT COUNT(*) FROM Prescription Pre" in
  let before =
    match (Ghost_db.query db count_sql).Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "count shape"
  in
  Ghost_db.insert db (new_prescriptions db 7);
  match (Ghost_db.query db count_sql).Exec.rows with
  | [ [| Value.Int n |] ] -> check Alcotest.int "count grows" (before + 7) n
  | _ -> Alcotest.fail "count shape"

let test_insert_validation () =
  let db, _ = make () in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  let proto q f w m v =
    [| Value.Int next; Value.Int q; Value.Int f; Value.Date w; Value.Int m; Value.Int v |]
  in
  (* wrong key *)
  (try
     Ghost_db.insert db
       [ [| Value.Int 1; Value.Int 1; Value.Int 1; Value.Date 0; Value.Int 1; Value.Int 1 |] ];
     Alcotest.fail "expected key error"
   with Insert.Insert_error _ -> ());
  (* dangling fk *)
  (try
     Ghost_db.insert db [ proto 1 1 0 999_999 1 ];
     Alcotest.fail "expected fk error"
   with Insert.Insert_error _ -> ());
  (* wrong arity *)
  (try
     Ghost_db.insert db [ [| Value.Int next |] ];
     Alcotest.fail "expected arity error"
   with Insert.Insert_error _ -> ());
  (* type mismatch *)
  (try
     Ghost_db.insert db [ [| Value.Int next; Value.Str "x"; Value.Int 1; Value.Date 0; Value.Int 1; Value.Int 1 |] ];
     Alcotest.fail "expected type error"
   with Insert.Insert_error _ -> ());
  check Alcotest.int "nothing applied" 0 (Ghost_db.delta_count db)

let test_insert_costs_flash_writes () =
  let db, _ = make () in
  let flash = Device.flash (Ghost_db.device db) in
  let before = (Ghost_flash.Flash.stats flash).Ghost_flash.Flash.page_programs in
  Ghost_db.insert db (new_prescriptions db 10);
  let after = (Ghost_flash.Flash.stats flash).Ghost_flash.Flash.page_programs in
  check Alcotest.bool "programs happened" true (after > before)

(* The id vector of an inserted row takes one SKT row per child
   subtree, read through a row-sized buffer charged to the RAM arena
   and released afterwards. At small scale the Visit SKT spans many
   pages, and Visit 2's row sits inside the first one. *)
let test_insert_reads_one_skt_row () =
  let small = Medical.small in
  let db = Ghost_db.of_schema (Medical.schema ()) (Medical.generate small) in
  let device = Ghost_db.device db in
  let schema = Ghost_db.schema db in
  let child_skts =
    List.filter_map
      (fun (child, _) -> Catalog.skt (Ghost_db.catalog db) child)
      (Schema.children schema (Schema.root schema).Schema.name)
  in
  check Alcotest.bool "the root has a child SKT" true (child_skts <> []);
  let ram = Device.ram device in
  let in_use = Ram.in_use ram in
  let scope = Ram.open_scope ram in
  let before = Device.snapshot device in
  Ghost_db.insert db
    [
      [|
        Value.Int (small.Medical.prescriptions + 1); Value.Int 5; Value.Int 2;
        Value.Date Medical.date_lo; Value.Int 1; Value.Int 2;
      |];
    ];
  let usage = Device.usage_between device ~before ~after:(Device.snapshot device) in
  let peak = Ram.close_scope ram scope in
  check Alcotest.bool
    (Printf.sprintf "at most one page per child SKT (%d pages read)"
       usage.Device.flash_page_reads)
    true
    (usage.Device.flash_page_reads <= List.length child_skts);
  check Alcotest.bool "the read buffer is charged to the arena" true
    (peak >= in_use + List.fold_left (fun m skt -> max m (Skt.row_width skt)) 0 child_skts);
  check Alcotest.int "the arena returns to its earlier value" in_use (Ram.in_use ram)

let test_insert_privacy () =
  let db, _ = make () in
  Ghost_db.insert db (new_prescriptions db 20);
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  let verdict = Ghost_db.audit db in
  check Alcotest.bool "still leak-free with delta" true verdict.Ghostdb.Privacy.ok

let test_baselines_refuse_delta () =
  let db, _ = make () in
  Ghost_db.insert db (new_prescriptions db 1);
  try
    ignore
      (Baseline.run Baseline.Grace_hash (Ghost_db.catalog db) (Ghost_db.public db)
         (Ghost_db.bind db Queries.demo));
    Alcotest.fail "expected Baseline_error"
  with Baseline.Baseline_error _ -> ()

let test_multiple_batches () =
  let db, rows = make () in
  let b1 = new_prescriptions ~seed:1 db 150 in
  Ghost_db.insert db b1;
  let b2 = new_prescriptions ~seed:2 db 150 in
  Ghost_db.insert db b2;
  check Alcotest.int "300 pending" 300 (Ghost_db.delta_count db);
  let full_rows =
    List.map
      (fun (name, rs) ->
         if name = "Prescription" then (name, rs @ b1 @ b2) else (name, rs))
      rows
  in
  let refdb = Reference.db_of_rows (Ghost_db.schema db) full_rows in
  let sql = Queries.demo_with ~date_selectivity:0.5 ~purpose:"Checkup" () in
  let q = Ghost_db.bind db sql in
  let expected = Reference.run (Ghost_db.schema db) refdb q in
  let r = Ghost_db.query db sql in
  check Alcotest.bool "two batches visible" true (rows_equal r.Exec.rows expected);
  (* a DeltaScan operator must have run *)
  check Alcotest.bool "delta scan ran" true
    (List.exists (fun o -> o.Exec.op_label = "DeltaScan") r.Exec.ops)

let suite = [
  Alcotest.test_case "inserted rows visible to every plan" `Slow
    test_insert_visible_through_queries;
  Alcotest.test_case "aggregates see the delta" `Quick test_insert_aggregates_see_delta;
  Alcotest.test_case "validation applies atomically" `Quick test_insert_validation;
  Alcotest.test_case "inserts cost flash programs" `Quick test_insert_costs_flash_writes;
  Alcotest.test_case "one SKT row per child, charged to the arena" `Quick
    test_insert_reads_one_skt_row;
  Alcotest.test_case "privacy holds with delta" `Quick test_insert_privacy;
  Alcotest.test_case "baselines refuse pending inserts" `Quick test_baselines_refuse_delta;
  Alcotest.test_case "multiple batches + DeltaScan op" `Quick test_multiple_batches;
]
