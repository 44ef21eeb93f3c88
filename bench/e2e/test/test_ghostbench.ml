(* Tests of the end-to-end benchmark: its statistics and naming rules,
   the metric catalogue BENCHMARK.json declares, and a tiny-scale run of
   every workload. *)

module Json = Ghost_metrics.Json
module Stats = Ghost_e2e.Stats
module Spec = Ghost_e2e.Spec
module Cli = Ghost_e2e.Cli
module Workloads = Ghost_e2e.Workloads

let close = Alcotest.float 1e-9

(* {2 Statistics} *)

let test_tail_percentile () =
  let check n p = Alcotest.(check int) (Printf.sprintf "n=%d" n) p (Stats.tail_percentile n) in
  check 1000 99;
  check 5000 99;
  check 999 98;
  check 200 95;
  check 40 75;
  check 19 50;
  (* the chosen percentile leaves >= 10 samples beyond it, the next one
     up does not (below the cap) *)
  for n = 20 to 3000 do
    let p = Stats.tail_percentile n in
    let a = Array.init n float_of_int in
    let beyond p =
      let v = Stats.percentile a (float_of_int p) in
      Array.fold_left (fun k x -> if x > v then k + 1 else k) 0 a
    in
    if beyond p < 10 then Alcotest.failf "n=%d p%d leaves %d beyond" n p (beyond p);
    if p < 99 && beyond (p + 1) >= 10 then Alcotest.failf "n=%d p%d is not the highest" n p
  done

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.check close "p50" 50. (Stats.percentile a 50.);
  Alcotest.check close "p99" 99. (Stats.percentile a 99.);
  Alcotest.check close "p100" 100. (Stats.percentile a 100.);
  Alcotest.(check bool) "empty is nan" true (Float.is_nan (Stats.percentile [||] 50.))

let test_quartiles () =
  (* reference values from Python's statistics.quantiles(xs, n=4) *)
  let check xs (e1, e2, e3) =
    let q1, q2, q3 = Stats.quartiles xs in
    Alcotest.check close "q1" e1 q1;
    Alcotest.check close "q2" e2 q2;
    Alcotest.check close "q3" e3 q3
  in
  check (List.init 10 (fun i -> float_of_int (i + 1))) (2.75, 5.5, 8.25);
  check [ 1.; 2. ] (0.75, 1.5, 2.25);
  check [ 3.5; 1.25; 9.; 2. ] (1.4375, 2.75, 7.625);
  check [ 5.; 1.; 4.; 2.; 3. ] (1.5, 3., 4.5);
  Alcotest.check close "median even" 2.75 (Stats.median [ 3.5; 1.25; 9.; 2. ])

let test_ratio_bases () =
  (* an unexercised base reads 0: a cache with no accesses, a run with
     no attempts *)
  Alcotest.check close "hit ratio, 0 accesses" 0. (Stats.ratio 0. 0.);
  Alcotest.check close "error rate, 0 attempts" 0. (Stats.ratio 3. 0.);
  Alcotest.check close "plain ratio" 0.25 (Stats.ratio 1. 4.)

let test_names () =
  List.iter
    (fun s -> Alcotest.(check bool) s true (Stats.valid_name s))
    [ "dev_p50_ms"; "op.merge_index.flash_us"; "write-mix"; "0x" ];
  List.iter
    (fun s -> Alcotest.(check bool) (Printf.sprintf "%S" s) false (Stats.valid_name s))
    [ ""; "_x"; ".x"; "a b"; "ops/s"; "Merge+Index"; String.make 65 'a' ];
  List.iter
    (fun (label, cls) -> Alcotest.(check string) label cls (Stats.op_class label))
    [
      ("Merge+Index", "merge_index");
      ("AccessSKT", "access_skt");
      ("ShipIds(Doctor)", "ship_ids");
      ("ShipPadded(Visit)", "ship_padded");
      ("Project+Join(Med.Name)", "project_join");
      ("TombstoneLoad", "tombstone_load");
    ]

(* {2 BENCHMARK.json} *)

let test_catalogue () =
  let all = Spec.end_to_end @ Spec.per_layer in
  let valid_unit u =
    String.length u >= 1 && String.length u <= 16
    && String.for_all
         (function
           | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '/' | '%' | '.' | '-' -> true
           | _ -> false)
         u
  in
  List.iter
    (fun (m : Spec.metric) ->
       if not (Stats.valid_name m.Spec.name) then Alcotest.failf "bad name %s" m.Spec.name;
       if not (valid_unit m.Spec.unit) then
         Alcotest.failf "%s: bad unit %s" m.Spec.name m.Spec.unit;
       let same (x : Spec.metric) = x.Spec.name = m.Spec.name in
       if List.length (List.filter same all) > 1 then
         Alcotest.failf "%s declared twice" m.Spec.name)
    all;
  List.iter
    (fun (m : Spec.metric) ->
       match m.Spec.bound with
       | Some b when b > 0. && b <= 0.25 -> ()
       | _ -> Alcotest.failf "%s: bound must lie in (0, 0.25]" m.Spec.name)
    Spec.end_to_end;
  List.iter
    (fun (m : Spec.metric) ->
       if m.Spec.bound <> None then
         Alcotest.failf "%s: a per-layer metric has no bound" m.Spec.name)
    Spec.per_layer;
  (match Spec.find "setup_s" with
   | Some { Spec.unit = "s"; better = Spec.Lower; bound = Some _; _ } -> ()
   | _ -> Alcotest.fail "setup_s must be an end-to-end metric in s, lower is better");
  List.iter
    (fun w ->
       if Workloads.kind_of_name w = None then Alcotest.failf "unknown workload %s" w)
    Spec.workloads

let test_values () =
  let m = List.hd Spec.end_to_end in
  Alcotest.(check (list (pair string close))) "picked" [ (m.Spec.name, 2.) ]
    (Spec.values [ m ] [ ("other", 1.); (m.Spec.name, 2.) ]);
  match Spec.values [ m ] [ ("other", 1.) ] with
  | _ -> Alcotest.fail "a metric that was not computed must raise"
  | exception Failure _ -> ()

(* {2 Smoke runs} *)

let smoke ?(inject_model_error = false) workload =
  Cli.run_workload
    { Cli.workloads = [ workload ]; seed = 3; seconds = Cli.default_seconds;
      trace = true; out = None; smoke = true; inject_model_error }
    workload

let result lines =
  match Json.parse (List.nth lines (List.length lines - 1)) with
  | Ok j -> j
  | Error e -> Alcotest.failf "last line is not JSON: %s" e

let printed lines workload name =
  let prefix = Printf.sprintf "%s %s " workload name in
  List.exists
    (fun l -> String.length l > String.length prefix
              && String.sub l 0 (String.length prefix) = prefix)
    lines

let metric j name =
  match Option.bind (Json.member "metrics" j) (Json.member name) with
  | Some m -> Option.get (Option.bind (Json.member "value" m) Json.to_num)
  | None -> Alcotest.failf "metric %s missing from the result" name

let test_smoke workload () =
  let lines, correct = smoke workload in
  let j = result lines in
  Alcotest.(check bool) "correct" true correct;
  Alcotest.check close "failed" 0. (Option.get (Option.bind (Json.member "failed" j) Json.to_num));
  List.iter
    (fun (m : Spec.metric) ->
       if not (printed lines workload m.Spec.name) then
         Alcotest.failf "%s not printed" m.Spec.name)
    (Spec.end_to_end @ Spec.per_layer);
  (* the traced run's result carries the per-layer metrics *)
  List.iter (fun (m : Spec.metric) -> ignore (metric j m.Spec.name)) Spec.per_layer;
  if workload = "oblivious_sessions" then begin
    Alcotest.check close "no leak" 0. (metric j "privacy.leak_bits_per_query");
    Alcotest.check close "cache off: hit ratio base is 0" 0. (metric j "cache.hit_ratio")
  end

let test_model_oracle () =
  let lines, correct = smoke ~inject_model_error:true "write_mix" in
  Alcotest.(check bool) "a wrong model row is caught" false correct;
  let j = result lines in
  let failed = Option.get (Option.bind (Json.member "failed" j) Json.to_num) in
  if failed <= 0. then Alcotest.fail "error rate stayed 0"

(* {2 compare} *)

let test_verdict () =
  let v ?(better = Spec.Lower) ~bound a b = Cli.verdict_name (Cli.verdict ~better ~bound a b) in
  let base = [ 100.; 101.; 99.; 100.5; 99.5 ] in
  Alcotest.(check string) "same" "same" (v ~bound:0.05 base [ 101.; 100.; 102.; 99.; 100. ]);
  Alcotest.(check string) "regressed" "regressed"
    (v ~bound:0.05 base [ 110.; 111.; 109.; 110.5; 109.5 ]);
  Alcotest.(check string) "improved" "improved"
    (v ~bound:0.05 base [ 90.; 91.; 89.; 90.5; 89.5 ]);
  Alcotest.(check string) "higher is better" "regressed"
    (v ~better:Spec.Higher ~bound:0.05 base [ 90.; 91.; 89.; 90.5; 89.5 ]);
  Alcotest.(check string) "unresolved" "unresolved"
    (v ~bound:0.05 [ 80.; 120.; 100.; 90.; 110. ] [ 85.; 125.; 95.; 105.; 100. ])

let () =
  Alcotest.run "ghostbench"
    [
      ( "stats",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_percentile;
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
          Alcotest.test_case "ratio bases" `Quick test_ratio_bases;
          Alcotest.test_case "names and op classes" `Quick test_names;
        ] );
      ( "spec",
        [
          Alcotest.test_case "BENCHMARK.json catalogue" `Quick test_catalogue;
          Alcotest.test_case "declared metrics must be computed" `Quick test_values;
        ] );
      ( "smoke",
        List.map (fun w -> Alcotest.test_case w `Quick (test_smoke w)) Spec.workloads
        @ [ Alcotest.test_case "write_mix model oracle" `Quick test_model_oracle ] );
      ("compare", [ Alcotest.test_case "verdicts" `Quick test_verdict ]);
    ]
