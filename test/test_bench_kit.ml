(* Report formatting and experiment harness smoke tests. *)

module Report = Ghost_bench.Report
module Experiments = Ghost_bench.Experiments
module Medical = Ghost_workload.Medical
module Json = Ghost_metrics.Json

let check = Alcotest.check

let test_report_rendering () =
  let r =
    Report.make ~id:"X1" ~title:"demo" ~header:[ "a"; "bb" ]
      ~notes:[ "a note" ]
      [ [ "1"; "2" ]; [ "10"; "20" ] ]
  in
  let text = Report.to_string r in
  let contains sub =
    let n = String.length sub in
    let rec loop i = i + n <= String.length text && (String.sub text i n = sub || loop (i + 1)) in
    loop 0
  in
  check Alcotest.bool "title" true (contains "== X1: demo ==");
  check Alcotest.bool "note" true (contains "note: a note");
  check Alcotest.bool "cells" true (contains "10" && contains "20");
  (* a cell with a quote, a backslash, a newline and a UTF-8 byte pair
     reparses to the same string *)
  let odd = "say \"hi\" \\ new\nline 5 µs" in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  check Alcotest.bool "json reparses to the same strings" true
    (Json.parse (Report.to_json { r with Report.rows = [ [ odd; "2" ] ] })
     = Ok
         (Json.Obj
            [
              ("id", Json.Str "X1");
              ("title", Json.Str "demo");
              ("header", strs [ "a"; "bb" ]);
              ("rows", Json.Arr [ strs [ odd; "2" ] ]);
              ("notes", strs [ "a note" ]);
            ]))

let test_unit_rendering () =
  check Alcotest.string "us" "123 us" (Report.us 123.);
  check Alcotest.string "ms" "12.3 ms" (Report.us 12_300.);
  check Alcotest.string "s" "2.50 s" (Report.us 2_500_000.);
  check Alcotest.string "b" "123 B" (Report.bytes 123);
  check Alcotest.string "kb" "12.0 KB" (Report.bytes (12 * 1024));
  check Alcotest.string "mb" "3.0 MB" (Report.bytes (3 * 1024 * 1024));
  check Alcotest.string "factor" "x2.5" (Report.factor 2.5)

(* Each experiment must produce a well-formed, non-empty table at tiny
   scale (the shapes themselves are asserted by the sweep tests; here
   we guard the harness plumbing). *)
let test_experiments_run_at_tiny_scale () =
  let scale = Medical.tiny in
  let reports = [
    Experiments.fig6_plans ~scale ();
    Experiments.operator_stats ~scale ();
    Experiments.privacy_trace ~scale ();
    Experiments.baseline_compare ~scale ();
    Experiments.storage_overhead ~scales:[ scale ] ();
    Experiments.insert_sweep ~scale ();
    Experiments.ablation_exact_post ~scale ();
    Experiments.ablation_bloom_fpr ~scale ();
    Experiments.ablation_hidden_fk_indexes ~scale ();
  ] in
  List.iter
    (fun (r : Report.t) ->
       check Alcotest.bool (r.Report.id ^ " has rows") true (r.Report.rows <> []);
       let w = List.length r.Report.header in
       List.iter
         (fun row ->
            check Alcotest.int (r.Report.id ^ " row width") w (List.length row))
         r.Report.rows)
    reports

(* E15's worn-blocks row must measure the remap path: its inserts
   program enough log pages that some program fails and is remapped. *)
let test_worn_blocks_remap () =
  let r = Experiments.robustness ~scale:Medical.tiny () in
  let column name =
    let rec find i = function
      | [] -> Alcotest.failf "E15 has no %S column" name
      | h :: rest -> if h = name then i else find (i + 1) rest
    in
    find 0 r.Report.header
  in
  match List.find_opt (fun row -> List.hd row = "worn blocks") r.Report.rows with
  | None -> Alcotest.fail "E15 has no worn blocks row"
  | Some row ->
    let remapped = int_of_string (List.nth row (column "remapped")) in
    if remapped < 1 then Alcotest.fail "E15 worn blocks: no page was remapped"

let suite = [
  Alcotest.test_case "report rendering" `Quick test_report_rendering;
  Alcotest.test_case "unit rendering" `Quick test_unit_rendering;
  Alcotest.test_case "experiments run at tiny scale" `Slow
    test_experiments_run_at_tiny_scale;
  Alcotest.test_case "E15 worn blocks remap pages" `Quick test_worn_blocks_remap;
]
