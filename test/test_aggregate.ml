(* Aggregation: SQL semantics on known data, engine vs reference, and
   device-side execution through all plans. *)

module Value = Ghost_kernel.Value
module Schema = Ghost_relation.Schema
module Parser = Ghost_sql.Parser
module Ast = Ghost_sql.Ast
module Bind = Ghost_sql.Bind
module Aggregate = Ghost_sql.Aggregate
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan

let check = Alcotest.check

(* ---- parsing ---- *)

let test_parse_aggregates () =
  let s =
    Parser.parse_select
      "SELECT Country, COUNT(*), AVG(Age), MIN(Age) FROM Patient GROUP BY Country"
  in
  check Alcotest.int "4 projections" 4 (List.length s.Ast.projections);
  check Alcotest.int "1 group col" 1 (List.length s.Ast.group_by);
  (match s.Ast.projections with
   | [ Ast.P_col _; Ast.P_agg (Ast.Count, None); Ast.P_agg (Ast.Avg, Some _);
       Ast.P_agg (Ast.Min, Some _) ] -> ()
   | _ -> Alcotest.fail "wrong projection shapes")

let test_parse_agg_errors () =
  List.iter
    (fun sql ->
       try
         ignore (Parser.parse_select sql);
         Alcotest.fail ("expected Parse_error for " ^ sql)
       with Parser.Parse_error _ -> ())
    [ "SELECT SUM(*) FROM T"; "SELECT COUNT( FROM T"; "SELECT AVG() FROM T" ]

let test_bind_agg_validation () =
  let schema = Medical.schema () in
  (* non-grouped plain column *)
  (try
     ignore (Bind.bind schema "SELECT Country, COUNT(*) FROM Patient");
     Alcotest.fail "expected Bind_error (non-grouped column)"
   with Bind.Bind_error _ -> ());
  (* SUM over a string *)
  (try
     ignore (Bind.bind schema "SELECT SUM(Name) FROM Doctor");
     Alcotest.fail "expected Bind_error (SUM over CHAR)"
   with Bind.Bind_error _ -> ());
  (* valid: base projections are group cols then args *)
  let q = Bind.bind schema "SELECT Country, AVG(Age) FROM Patient GROUP BY Country" in
  check
    Alcotest.(list (pair string string))
    "base projections"
    [ ("Patient", "Country"); ("Patient", "Age") ]
    q.Bind.projections;
  check Alcotest.bool "aggregate present" true (q.Bind.aggregate <> None)

(* ---- Aggregate.apply semantics on hand-made rows ---- *)

let spec_global aggs output = { Aggregate.group_by = []; aggs; output }

let test_apply_count_star () =
  let spec =
    spec_global
      [ { Aggregate.a_fn = Aggregate.Count; a_arg = None; a_arg_pos = None } ]
      [ `Agg 0 ]
  in
  let rows = [ [| Value.Int 1 |]; [| Value.Int 2 |]; [| Value.Null |] ] in
  (match Aggregate.apply spec rows with
   | [ [| Value.Int 3 |] ] -> ()
   | _ -> Alcotest.fail "COUNT(*) counts every row, nulls included");
  (* empty input still yields one global row *)
  match Aggregate.apply spec [] with
  | [ [| Value.Int 0 |] ] -> ()
  | _ -> Alcotest.fail "COUNT(*) over empty input is 0"

let test_apply_null_semantics () =
  let agg fn = { Aggregate.a_fn = fn; a_arg = None; a_arg_pos = Some 0 } in
  let spec =
    spec_global
      [ agg Aggregate.Count; agg Aggregate.Sum; agg Aggregate.Avg; agg Aggregate.Min ]
      [ `Agg 0; `Agg 1; `Agg 2; `Agg 3 ]
  in
  let rows = [ [| Value.Int 10 |]; [| Value.Null |]; [| Value.Int 20 |] ] in
  (match Aggregate.apply spec rows with
   | [ [| Value.Int 2; Value.Int 30; Value.Float avg; Value.Int 10 |] ] ->
     check (Alcotest.float 1e-9) "avg ignores nulls" 15.0 avg
   | _ -> Alcotest.fail "null semantics wrong");
  (* all-null input: COUNT 0, others NULL *)
  match Aggregate.apply spec [ [| Value.Null |] ] with
  | [ [| Value.Int 0; Value.Null; Value.Null; Value.Null |] ] -> ()
  | _ -> Alcotest.fail "aggregates over all-null input"

let test_apply_group_by () =
  let spec =
    {
      Aggregate.group_by = [ ("T", "g") ];
      aggs = [ { Aggregate.a_fn = Aggregate.Sum; a_arg = None; a_arg_pos = Some 1 } ];
      output = [ `Group 0; `Agg 0 ];
    }
  in
  let rows =
    [
      [| Value.Str "a"; Value.Int 1 |];
      [| Value.Str "b"; Value.Int 10 |];
      [| Value.Str "a"; Value.Int 2 |];
    ]
  in
  let out = Reference.sort_rows (Aggregate.apply spec rows) in
  match out with
  | [ [| Value.Str "a"; Value.Int 3 |]; [| Value.Str "b"; Value.Int 10 |] ] -> ()
  | _ -> Alcotest.fail "group-by sums wrong"

let test_apply_min_max_dates () =
  let agg fn = { Aggregate.a_fn = fn; a_arg = None; a_arg_pos = Some 0 } in
  let spec = spec_global [ agg Aggregate.Min; agg Aggregate.Max ] [ `Agg 0; `Agg 1 ] in
  let rows = [ [| Value.Date 100 |]; [| Value.Date 50 |]; [| Value.Date 75 |] ] in
  match Aggregate.apply spec rows with
  | [ [| Value.Date 50; Value.Date 100 |] ] -> ()
  | _ -> Alcotest.fail "min/max over dates"

let test_sum_mixes_to_float () =
  let agg = { Aggregate.a_fn = Aggregate.Sum; a_arg = None; a_arg_pos = Some 0 } in
  let spec = spec_global [ agg ] [ `Agg 0 ] in
  match Aggregate.apply spec [ [| Value.Int 1 |]; [| Value.Float 0.5 |] ] with
  | [ [| Value.Float f |] ] -> check (Alcotest.float 1e-9) "mixed sum" 1.5 f
  | _ -> Alcotest.fail "mixed int/float sum should be float"

(* ---- end-to-end on the device ---- *)

let instance =
  lazy
    (let rows = Medical.generate Medical.tiny in
     let db = Ghost_db.of_schema (Medical.schema ()) rows in
     let refdb = Reference.db_of_rows (Ghost_db.schema db) rows in
     (db, refdb))

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let agg_queries = [
  "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity > 5";
  "SELECT COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre, Visit Vis WHERE \
   Vis.Purpose = 'Checkup' AND Pre.VisID = Vis.VisID";
  "SELECT Med.Type, COUNT(*), MAX(Pre.Quantity) FROM Medicine Med, Prescription Pre \
   WHERE Med.MedID = Pre.MedID GROUP BY Med.Type";
  "SELECT Pat.Country, MIN(Pat.Age), AVG(Pat.Age) FROM Patient Pat GROUP BY \
   Pat.Country";
  "SELECT Vis.Date, COUNT(*) FROM Visit Vis, Prescription Pre WHERE Vis.Purpose = \
   'Diabetes' AND Pre.VisID = Vis.VisID GROUP BY Vis.Date";
]

let test_engine_agg_matches_reference () =
  let db, refdb = Lazy.force instance in
  List.iter
    (fun sql ->
       let q = Ghost_db.bind db sql in
       let expected = Reference.run (Ghost_db.schema db) refdb q in
       let panel = Ghost_db.plans db sql in
       List.iter
         (fun (plan, _) ->
            let r = Ghost_db.run_plan db plan in
            if not (rows_equal r.Exec.rows expected) then
              Alcotest.failf "aggregate mismatch for %s under plan [%s]" sql
                plan.Plan.label)
         panel)
    agg_queries

let test_count_star_equals_row_count () =
  (* independent cross-check: the star count equals the cardinality of
     the corresponding non-aggregate query *)
  let db, _ = Lazy.force instance in
  let base =
    Ghost_db.query db
      "SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
       'Checkup' AND Pre.VisID = Vis.VisID"
  in
  let agg =
    Ghost_db.query db
      "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
       'Checkup' AND Pre.VisID = Vis.VisID"
  in
  match agg.Exec.rows with
  | [ [| Value.Int n |] ] -> check Alcotest.int "count = rows" base.Exec.row_count n
  | _ -> Alcotest.fail "COUNT(*) shape"

(* The group table is charged to the arena at the width its rows are
   emitted at, the output types' widths: at tiny scale Visit.Purpose
   takes 16 groups of a CHAR(20) key and an INT count, 28 bytes each,
   so Project's RAM peak is 768 bytes (576 at 8 bytes a column). *)
let test_group_rows_charged_at_output_width () =
  let db, _ = Lazy.force instance in
  let sql =
    "SELECT Vis.Purpose, COUNT(*) FROM Prescription Pre, Visit Vis WHERE \
     Vis.VisID = Pre.VisID GROUP BY Vis.Purpose"
  in
  let r = Ghost_db.query db sql in
  check Alcotest.int "groups" 16 r.Exec.row_count;
  match List.find_opt (fun o -> o.Exec.op_label = "Project") r.Exec.ops with
  | Some op -> check Alcotest.int "Project RAM peak" 768 op.Exec.ram_peak
  | None -> Alcotest.fail "no Project operator"

let test_agg_results_stay_private () =
  let db, _ = Lazy.force instance in
  Ghost_db.clear_trace db;
  List.iter (fun sql -> ignore (Ghost_db.query db sql)) agg_queries;
  let verdict = Ghost_db.audit db in
  check Alcotest.bool "aggregates leak nothing" true verdict.Ghostdb.Privacy.ok

let suite = [
  Alcotest.test_case "parse aggregates" `Quick test_parse_aggregates;
  Alcotest.test_case "parse aggregate errors" `Quick test_parse_agg_errors;
  Alcotest.test_case "bind validation" `Quick test_bind_agg_validation;
  Alcotest.test_case "COUNT(*) semantics" `Quick test_apply_count_star;
  Alcotest.test_case "NULL semantics" `Quick test_apply_null_semantics;
  Alcotest.test_case "GROUP BY" `Quick test_apply_group_by;
  Alcotest.test_case "MIN/MAX over dates" `Quick test_apply_min_max_dates;
  Alcotest.test_case "mixed SUM is float" `Quick test_sum_mixes_to_float;
  Alcotest.test_case "engine aggregates = reference (all plans)" `Slow
    test_engine_agg_matches_reference;
  Alcotest.test_case "COUNT(*) equals row count" `Quick test_count_star_equals_row_count;
  Alcotest.test_case "group rows charged at their output width" `Quick
    test_group_rows_charged_at_output_width;
  Alcotest.test_case "aggregates pass the privacy audit" `Quick
    test_agg_results_stay_private;
]
