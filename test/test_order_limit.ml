(* ORDER BY / LIMIT: parsing, binding, device execution, agreement with
   the reference on deterministic orderings. *)

module Value = Ghost_kernel.Value
module Medical = Ghost_workload.Medical
module Reference = Ghost_workload.Reference
module Parser = Ghost_sql.Parser
module Ast = Ghost_sql.Ast
module Bind = Ghost_sql.Bind
module Postproc = Ghost_sql.Postproc
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan

let check = Alcotest.check

let instance =
  lazy
    (let rows = Medical.generate Medical.tiny in
     let db = Ghost_db.of_schema (Medical.schema ()) rows in
     let refdb = Reference.db_of_rows (Ghost_db.schema db) rows in
     (db, refdb))

let test_parse () =
  let s =
    Parser.parse_select
      "SELECT Name, Zip FROM Doctor ORDER BY Zip DESC, Name ASC LIMIT 5"
  in
  check Alcotest.int "two order keys" 2 (List.length s.Ast.order_by);
  (match s.Ast.order_by with
   | [ (_, true); (_, false) ] -> ()
   | _ -> Alcotest.fail "directions wrong");
  check Alcotest.(option int) "limit" (Some 5) s.Ast.limit;
  (* limit without order is legal *)
  let s2 = Parser.parse_select "SELECT Name FROM Doctor LIMIT 3" in
  check Alcotest.(option int) "bare limit" (Some 3) s2.Ast.limit

let test_parse_errors () =
  List.iter
    (fun sql ->
       try
         ignore (Parser.parse_select sql);
         Alcotest.fail ("expected Parse_error for " ^ sql)
       with Parser.Parse_error _ -> ())
    [
      "SELECT Name FROM Doctor ORDER Name";
      "SELECT Name FROM Doctor LIMIT -1";
      "SELECT Name FROM Doctor LIMIT x";
    ]

let test_bind_validation () =
  let schema = Medical.schema () in
  (try
     ignore (Bind.bind schema "SELECT Name FROM Doctor ORDER BY Zip");
     Alcotest.fail "expected Bind_error (not selected)"
   with Bind.Bind_error _ -> ());
  let q = Bind.bind schema "SELECT Name, Zip FROM Doctor ORDER BY Zip DESC LIMIT 2" in
  check Alcotest.bool "order resolved to index 1 desc" true
    (q.Bind.order_by = [ (1, true) ]);
  check Alcotest.(option int) "limit bound" (Some 2) q.Bind.limit;
  (* group-by queries may order by a group column *)
  let q2 =
    Bind.bind schema
      "SELECT Country, COUNT(*) FROM Patient GROUP BY Country ORDER BY Country"
  in
  check Alcotest.bool "group order" true (q2.Bind.order_by = [ (0, false) ])

let test_postproc_semantics () =
  let rows = [ [| Value.Int 2 |]; [| Value.Int 1 |]; [| Value.Int 3 |] ] in
  check Alcotest.bool "asc" true
    (Postproc.apply ~order_by:[ (0, false) ] ~limit:None rows
     = [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Int 3 |] ]);
  check Alcotest.bool "desc + limit" true
    (Postproc.apply ~order_by:[ (0, true) ] ~limit:(Some 2) rows
     = [ [| Value.Int 3 |]; [| Value.Int 2 |] ]);
  check Alcotest.bool "limit 0" true
    (Postproc.apply ~order_by:[] ~limit:(Some 0) rows = []);
  check Alcotest.bool "limit beyond" true
    (Postproc.apply ~order_by:[] ~limit:(Some 99) rows = rows)

let test_engine_ordered_output () =
  let db, refdb = Lazy.force instance in
  (* order by the unique key: fully deterministic, so compare exact
     sequences across every plan *)
  let sql =
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis WHERE \
     Vis.Purpose = 'Checkup' AND Pre.VisID = Vis.VisID ORDER BY Pre.PreID DESC \
     LIMIT 7"
  in
  let q = Ghost_db.bind db sql in
  let expected = Reference.run (Ghost_db.schema db) refdb q in
  check Alcotest.bool "limit respected" true (List.length expected <= 7);
  List.iter
    (fun (plan, _) ->
       let r = Ghost_db.run_plan db plan in
       if r.Exec.rows <> expected then
         Alcotest.failf "plan [%s]: ordered output differs" plan.Plan.label)
    (Ghost_db.plans db sql)

let test_order_by_aggregate_group () =
  let db, refdb = Lazy.force instance in
  let sql =
    "SELECT Pat.Country, COUNT(*) FROM Patient Pat GROUP BY Pat.Country ORDER BY \
     Pat.Country"
  in
  let q = Ghost_db.bind db sql in
  let expected = Reference.run (Ghost_db.schema db) refdb q in
  let r = Ghost_db.query db sql in
  check Alcotest.bool "grouped + ordered" true (r.Exec.rows = expected);
  (* countries must come out sorted *)
  let countries =
    List.map (fun row -> match row.(0) with Value.Str s -> s | _ -> "?") r.Exec.rows
  in
  check Alcotest.bool "sorted" true (countries = List.sort String.compare countries)

let test_top_k_shape () =
  let db, _ = Lazy.force instance in
  let r =
    Ghost_db.query db
      "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre ORDER BY Pre.Quantity \
       DESC, Pre.PreID LIMIT 5"
  in
  check Alcotest.int "five rows" 5 r.Exec.row_count;
  let quantities =
    List.map (fun row -> match row.(1) with Value.Int q -> q | _ -> -1) r.Exec.rows
  in
  check Alcotest.bool "descending" true
    (quantities = List.sort (fun a b -> Int.compare b a) quantities)

(* Emission is priced after LIMIT: the result event carries exactly the
   emitted rows' bytes (2 projected columns: 2 x 4 framing + the
   8-byte Quantity), never the pre-LIMIT match count's. *)
let test_limit_emission_bytes () =
  let db, _ = Lazy.force instance in
  let sql =
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity >= 3 \
     LIMIT 5"
  in
  let plan, _ = List.hd (Ghost_db.plans db sql) in
  List.iter
    (fun mode ->
       Ghost_db.clear_trace db;
       let r = Ghost_db.run_plan db (Plan.with_mode plan mode) in
       check Alcotest.int "five rows" 5 r.Exec.row_count;
       match
         List.filter_map
           (fun (e : Ghost_device.Trace.event) ->
              match e.Ghost_device.Trace.payload with
              | Ghost_device.Trace.Result_tuples { count } ->
                Some (count, e.Ghost_device.Trace.bytes)
              | _ -> None)
           (Ghost_device.Trace.events (Ghost_db.trace db))
       with
       | [ (count, bytes) ] ->
         check Alcotest.int "emitted count" 5 count;
         check Alcotest.int "emitted bytes = 5 x row width" (5 * 16) bytes
       | l -> Alcotest.failf "expected one result event, got %d" (List.length l))
    [ Ghost_oblivious.Oblivious.Off; Ghost_oblivious.Oblivious.Pad ]

let suite = [
  Alcotest.test_case "parse order/limit" `Quick test_parse;
  Alcotest.test_case "parse errors" `Quick test_parse_errors;
  Alcotest.test_case "bind validation" `Quick test_bind_validation;
  Alcotest.test_case "postproc semantics" `Quick test_postproc_semantics;
  Alcotest.test_case "engine ordered output (all plans)" `Quick test_engine_ordered_output;
  Alcotest.test_case "order by aggregate group" `Quick test_order_by_aggregate_group;
  Alcotest.test_case "top-k shape" `Quick test_top_k_shape;
  Alcotest.test_case "LIMIT emission bytes" `Quick test_limit_emission_bytes;
]
