(* Deletes (tombstones) and offline reorganization. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan
module Insert = Ghostdb.Insert

let check = Alcotest.check

let make () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  (db, rows)

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let without_prescriptions ids rows =
  List.map
    (fun (name, rs) ->
       if name <> "Prescription" then (name, rs)
       else
         ( name,
           List.filter
             (fun row ->
                match row.(0) with
                | Value.Int id -> not (List.mem id ids)
                | _ -> true)
             rs ))
    rows

let test_deleted_rows_invisible_all_plans () =
  let db, rows = make () in
  let victims = [ 1; 2; 50; 399; 400 ] in
  Ghost_db.delete db victims;
  check Alcotest.int "tombstones" 5 (Ghost_db.tombstone_count db);
  let refdb =
    Reference.db_of_rows (Ghost_db.schema db) (without_prescriptions victims rows)
  in
  List.iter
    (fun (name, sql) ->
       let q = Ghost_db.bind db sql in
       let expected = Reference.run (Ghost_db.schema db) refdb q in
       List.iter
         (fun (plan, _) ->
            let r = Ghost_db.run_plan db plan in
            if not (rows_equal r.Exec.rows expected) then
              Alcotest.failf "%s after deletes: plan [%s] wrong" name plan.Plan.label)
         (Ghost_db.plans db sql))
    Queries.all

let test_delete_validation () =
  let db, _ = make () in
  Ghost_db.delete db [ 7 ];
  (try
     Ghost_db.delete db [ 7 ];
     Alcotest.fail "expected already-deleted error"
   with Insert.Insert_error _ -> ());
  (try
     Ghost_db.delete db [ 0 ];
     Alcotest.fail "expected range error"
   with Insert.Insert_error _ -> ());
  (try
     Ghost_db.delete db [ 9; 9 ];
     Alcotest.fail "expected duplicate error"
   with Insert.Insert_error _ -> ());
  check Alcotest.int "only the first delete applied" 1 (Ghost_db.tombstone_count db)

let test_delete_then_insert () =
  let db, _ = make () in
  Ghost_db.delete db [ 10; 20 ];
  (* ids are not reused before reorganization: the next insert key
     continues from total_count *)
  let next = Medical.tiny.Medical.prescriptions + 1 in
  Ghost_db.insert db
    [ [| Value.Int next; Value.Int 5; Value.Int 2; Value.Date Medical.date_lo;
         Value.Int 1; Value.Int 1 |] ];
  let count_sql = "SELECT COUNT(*) FROM Prescription Pre" in
  match (Ghost_db.query db count_sql).Exec.rows with
  | [ [| Value.Int n |] ] ->
    check Alcotest.int "400 - 2 + 1" (Medical.tiny.Medical.prescriptions - 2 + 1) n
  | _ -> Alcotest.fail "count shape"

let test_delete_a_delta_row () =
  let db, _ = make () in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  Ghost_db.insert db
    [ [| Value.Int next; Value.Int 5; Value.Int 2; Value.Date Medical.date_lo;
         Value.Int 1; Value.Int 1 |] ];
  Ghost_db.delete db [ next ];
  match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
  | [ [| Value.Int n |] ] ->
    check Alcotest.int "back to loaded count" Medical.tiny.Medical.prescriptions n
  | _ -> Alcotest.fail "count shape"

let test_reorganize_compacts_and_answers () =
  let db, _ = make () in
  (* churn: insert 40, delete 25 spread over main and delta *)
  let rng = Rng.create 11 in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  Ghost_db.insert db (Medical.new_prescriptions Medical.tiny rng ~first:next 40);
  Ghost_db.delete db [ 3; 17; 120; next; next + 5 ];
  Ghost_db.delete db (List.init 20 (fun i -> 200 + i));
  let live = Medical.tiny.Medical.prescriptions + 40 - 25 in
  let count db =
    match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
    | [ [| Value.Int n |] ] -> n
    | _ -> Alcotest.fail "count shape"
  in
  check Alcotest.int "live before reorg" live (count db);
  let fresh = Ghost_db.reorganize db in
  check Alcotest.int "no pending delta" 0 (Ghost_db.delta_count fresh);
  check Alcotest.int "no tombstones" 0 (Ghost_db.tombstone_count fresh);
  check Alcotest.int "live after reorg" live (count fresh);
  (* keys are compact again: max PreID = live count *)
  (match
     (Ghost_db.query fresh
        "SELECT MAX(Pre.PreID), MIN(Pre.PreID) FROM Prescription Pre")
       .Exec.rows
   with
   | [ [| Value.Int mx; Value.Int mn |] ] ->
     check Alcotest.int "dense max" live mx;
     check Alcotest.int "dense min" 1 mn
   | _ -> Alcotest.fail "minmax shape");
  (* non-key content is preserved: quantity histogram identical *)
  let histogram db =
    Reference.sort_rows
      (Ghost_db.query db
         "SELECT Pre.Quantity, COUNT(*) FROM Prescription Pre GROUP BY Pre.Quantity")
        .Exec.rows
  in
  check Alcotest.bool "content preserved" true (histogram db = histogram fresh);
  (* dimension keys are stable: per-country patient counts unchanged *)
  let by_country db =
    Reference.sort_rows
      (Ghost_db.query db
         "SELECT Pat.Country, COUNT(*) FROM Patient Pat GROUP BY Pat.Country")
        .Exec.rows
  in
  check Alcotest.bool "dimensions stable" true (by_country db = by_country fresh)

let test_reorganize_restores_speed () =
  let rows = Medical.generate Medical.small in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  let rng = Rng.create 3 in
  let scale = Medical.small in
  Ghost_db.insert db
    (Medical.new_prescriptions scale rng ~first:(scale.Medical.prescriptions + 1) 1500);
  let slow = (Ghost_db.query db Queries.demo).Exec.elapsed_us in
  let fresh = Ghost_db.reorganize db in
  let fast = (Ghost_db.query fresh Queries.demo).Exec.elapsed_us in
  check Alcotest.bool
    (Printf.sprintf "reorg speeds queries up (%.0f -> %.0f us)" slow fast)
    true (fast < slow)

let test_privacy_with_deletes () =
  let db, _ = make () in
  Ghost_db.delete db [ 5; 6; 7 ];
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  check Alcotest.bool "leak-free with tombstones" true
    (Ghost_db.audit db).Ghostdb.Privacy.ok;
  check Alcotest.int "ram released" 0 (Ram.in_use (Device.ram (Ghost_db.device db)))

let suite = [
  Alcotest.test_case "deleted rows invisible to every plan" `Slow
    test_deleted_rows_invisible_all_plans;
  Alcotest.test_case "delete validation" `Quick test_delete_validation;
  Alcotest.test_case "delete then insert" `Quick test_delete_then_insert;
  Alcotest.test_case "delete a delta row" `Quick test_delete_a_delta_row;
  Alcotest.test_case "reorganize compacts and answers" `Quick
    test_reorganize_compacts_and_answers;
  Alcotest.test_case "reorganize restores speed" `Quick test_reorganize_restores_speed;
  Alcotest.test_case "privacy with deletes" `Quick test_privacy_with_deletes;
]
