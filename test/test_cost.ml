(* Cost model and planner properties: the estimates don't need to be
   exact, but they must be sane (finite, monotone in the obvious knobs)
   and must rank the strategy extremes correctly. *)

module Date = Ghost_kernel.Date
module Device = Ghost_device.Device
module Flash = Ghost_flash.Flash
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Col_stats = Ghostdb.Col_stats
module Value = Ghost_kernel.Value
module Predicate = Ghost_relation.Predicate
module Plan = Ghostdb.Plan
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost
module Exec = Ghostdb.Exec
module Oblivious = Ghost_oblivious.Oblivious
module Wire = Ghost_wire.Wire

let check = Alcotest.check

let db = lazy (Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.small))

let sweep_sql sel =
  Printf.sprintf
    "SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.Date > '%s' AND \
     Vis.Purpose = 'Checkup' AND Vis.VisID = Pre.VisID"
    (Date.to_string (Medical.date_cutoff_for_selectivity sel))

let est_of db strategy sel =
  let cat = Ghost_db.catalog db in
  let q = Ghost_db.bind db (sweep_sql sel) in
  (Cost.estimate cat (Planner.uniform cat q strategy)).Cost.est_time_us

let test_pre_cost_monotone_in_selectivity () =
  let db = Lazy.force db in
  let costs = List.map (est_of db Plan.V_pre) [ 0.01; 0.05; 0.2; 0.5 ] in
  let rec increasing = function
    | a :: (b :: _ as rest) -> a <= b && increasing rest
    | _ -> true
  in
  check Alcotest.bool "pre cost grows with shipped ids" true (increasing costs)

let test_extremes_ranked_correctly () =
  let db = Lazy.force db in
  (* very selective visible predicate: Pre must beat Post *)
  check Alcotest.bool "pre wins at 0.1% selectivity" true
    (est_of db Plan.V_pre 0.001 < est_of db Plan.V_post 0.001);
  (* unselective: Post must beat Pre *)
  check Alcotest.bool "post wins at 50% selectivity" true
    (est_of db Plan.V_post 0.5 < est_of db Plan.V_pre 0.5)

let test_optimizer_pick_never_terrible () =
  (* The pick must be within 3x of the measured-fastest panel plan. *)
  let db = Lazy.force db in
  List.iter
    (fun sel ->
       let sql = sweep_sql sel in
       let panel = Ghost_db.plans db sql in
       let timed =
         List.map (fun (p, _) -> (Ghost_db.run_plan db p).Exec.elapsed_us) panel
       in
       let best = List.fold_left Float.min infinity timed in
       let picked = List.hd timed in
       if picked > 3. *. best then
         Alcotest.failf "sel %.3f: picked %.0f us, best %.0f us" sel picked best)
    [ 0.005; 0.05; 0.3 ]

let test_estimate_scales_with_flash_cost () =
  let rows = Medical.generate Medical.tiny in
  let time_at ratio =
    let config =
      { Device.default_config with Device.flash_cost = Flash.cost_with_write_ratio ratio }
    in
    let db = Ghost_db.of_schema ~device_config:config (Medical.schema ()) rows in
    let cat = Ghost_db.catalog db in
    let q = Ghost_db.bind db Queries.demo in
    (Cost.estimate cat (Planner.all_pre cat q)).Cost.est_time_us
  in
  (* reads dominate the plan; estimates must stay finite and positive
     under every cost model *)
  List.iter
    (fun r -> check Alcotest.bool "finite positive" true (time_at r > 0.))
    [ 1.; 5.; 10. ]

let test_estimate_breakdown_sums () =
  let db = Lazy.force db in
  let cat = Ghost_db.catalog db in
  let q = Ghost_db.bind db Queries.demo in
  let panel = List.map fst (Planner.with_estimates cat q) in
  List.iter
    (fun plan ->
       let est = Cost.estimate cat plan in
       let parts = List.fold_left (fun acc (_, v) -> acc +. v) 0. est.Cost.breakdown in
       if Float.abs (parts -. est.Cost.est_time_us) > 1e-6 then
         Alcotest.failf "breakdown of [%s] sums to %.1f, total %.1f" plan.Plan.label
           parts est.Cost.est_time_us)
    (panel
     @ List.map (fun p -> Plan.with_mode p Oblivious.Pad) panel
     @ List.map (fun p -> Plan.with_mode p Oblivious.Full) panel
     @ [ Planner.oblivious cat q ])

(* A Full estimate is a function of the schema and public bounds: the
   fixed-shape plans of queries that differ only in hidden constants
   must price identically, term by term (only [est_results] may move).
   The last group projects the visible Pre.Frequency, whose full-column
   stream takes the external-sort join at small scale. *)
let hidden_constant_groups =
  [
    ( "hidden_only",
      List.map
        (Printf.sprintf
           "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis WHERE \
            Vis.Purpose = '%s' AND Vis.VisID = Pre.VisID")
        [ "Sclerosis"; "Checkup"; "NoSuchPurpose" ] );
    ( "range_hidden",
      List.map
        (fun (lo, hi) ->
           Printf.sprintf
             "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity \
              BETWEEN %d AND %d"
             lo hi)
        [ (8, 10); (1, 2) ] );
    ( "visible_frequency",
      List.map
        (Printf.sprintf
           "SELECT Pre.PreID, Pre.Frequency FROM Prescription Pre, Visit Vis WHERE \
            Vis.Purpose = '%s' AND Vis.VisID = Pre.VisID")
        [ "Sclerosis"; "Checkup"; "NoSuchPurpose" ] );
  ]

let full_estimate_ignores_hidden_data db ~sorted_join =
  let cat = Ghost_db.catalog db in
  let priced sql =
    let e = Cost.estimate cat (Planner.oblivious cat (Ghost_db.bind db sql)) in
    ( Printf.sprintf "%h" e.Cost.est_time_us,
      e.Cost.est_usb_bytes,
      e.Cost.est_ram_bytes,
      List.map (fun (label, us) -> Printf.sprintf "%s=%h" label us) e.Cost.breakdown )
  in
  List.iter
    (fun (name, sqls) ->
       let first = priced (List.hd sqls) in
       List.iteri
         (fun i sql ->
            if priced sql <> first then
              Alcotest.failf "%s: variant %d prices differently from variant 0" name i)
         sqls;
       let _, _, _, terms = first in
       if name = "visible_frequency" then
         check Alcotest.bool
           (name ^ " joins Prescription by external sort")
           sorted_join
           (List.exists (String.starts_with ~prefix:"join-sort(Prescription)") terms))
    hidden_constant_groups

let test_full_estimate_ignores_hidden_data () =
  full_estimate_ignores_hidden_data ~sorted_join:false
    (Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.tiny));
  full_estimate_ignores_hidden_data ~sorted_join:true (Lazy.force db)

(* Emission is priced the way [Exec.emit_rows] charges it: the rows left
   after aggregation and LIMIT. A star count emits one row whatever the
   selectivity, and the Project operator ships nothing else, so its USB
   charge is the emission's. Pad and Full price the fixed row width
   exactly: one row, and the public bound. Off prices the display
   link's compact rows by the codec's shared per-type estimate, and
   charges the encoded size of the rows it emits. *)
let test_emission_priced_after_aggregation_and_limit () =
  let db = Lazy.force db in
  let schema = Ghost_db.schema db in
  let cfg = Device.config (Ghost_db.device db) in
  let usb_us bytes =
    cfg.Device.usb_per_message_us +. (bytes *. 8. /. cfg.Device.usb_mbit_per_s)
  in
  let fixed rows plan =
    usb_us (Float.of_int (rows * Plan.emit_row_width schema plan))
  in
  let emit (e : Cost.estimate) label = List.assoc label e.Cost.breakdown in
  let live = Ghostdb.Catalog.live_count (Ghost_db.catalog db) "Prescription" in
  let count_sql =
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
     'Sclerosis' AND Vis.VisID = Pre.VisID"
  in
  let tys = Ghost_sql.Bind.output_types schema (Ghost_db.bind db count_sql) in
  let panel = Ghost_db.plans db count_sql in
  List.iter
    (fun (mode, label, plans, expected) ->
       List.iter
         (fun (plan, _) ->
            let plan = Plan.with_mode plan mode in
            let e = Cost.estimate (Ghost_db.catalog db) plan in
            let name = plan.Plan.label ^ " " ^ Oblivious.mode_name mode in
            check (Alcotest.float 1e-9) (name ^ ": one row") (expected plan) (emit e label);
            let r = Ghost_db.run_plan db plan in
            let project = List.find (fun o -> o.Exec.op_label = "Project") r.Exec.ops in
            let charged =
              match mode with
              | Oblivious.Off ->
                usb_us
                  (Float.of_int (Wire.encode_rows (Wire.encoder ()) ~tys r.Exec.rows))
              | Oblivious.Pad | Oblivious.Full -> emit e label
            in
            check (Alcotest.float 1e-9) (name ^ ": the executor's charge") charged
              project.Exec.usage.Device.used_usb_us)
         plans)
    [
      ( Oblivious.Off,
        "emit",
        panel,
        fun _ ->
          usb_us (Wire.est_rows_bytes ~population:(Float.of_int live) ~root_keys:0 ~tys:[ Value.T_int ] 1.)
      );
      (Oblivious.Pad, "emit", panel, fixed 1);
      (Oblivious.Full, "emit-pad", [ List.hd panel ], fixed live);
    ];
  let limit_sql =
    "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity >= 3 LIMIT 5"
  in
  List.iter
    (fun (plan, _) ->
       let e mode = Cost.estimate (Ghost_db.catalog db) (Plan.with_mode plan mode) in
       let off = e Oblivious.Off in
       check Alcotest.bool
         (plan.Plan.label ^ ": at most 5 rows")
         true
         (emit off "emit" <= fixed 5 plan && off.Cost.est_results > 5);
       check (Alcotest.float 1e-9) (plan.Plan.label ^ ": Pad's bucket capped by the LIMIT")
         (fixed 5 plan) (emit (e Oblivious.Pad) "emit");
       check (Alcotest.float 1e-9) (plan.Plan.label ^ ": Full pads to the LIMIT")
         (fixed 5 plan) (emit (e Oblivious.Full) "emit-pad"))
    (Ghost_db.plans db limit_sql)

(* ---- Col_stats ---- *)

let test_col_stats_exact_mode () =
  let values = Array.init 100 (fun i -> Value.Int (i mod 4)) in
  let s = Col_stats.of_values values in
  check Alcotest.int "distinct" 4 (Col_stats.distinct s);
  check (Alcotest.float 1e-9) "eq" 0.25
    (Col_stats.selectivity s (Predicate.Eq (Value.Int 2)));
  check (Alcotest.float 1e-9) "ne" 0.75
    (Col_stats.selectivity s (Predicate.Ne (Value.Int 2)));
  check (Alcotest.float 1e-9) "absent value" 0.
    (Col_stats.selectivity s (Predicate.Eq (Value.Int 99)));
  check Alcotest.int "estimate rows" 25
    (Col_stats.estimate_rows s (Predicate.Eq (Value.Int 0)))

let test_col_stats_histogram_mode () =
  let values = Array.init 10_000 (fun i -> Value.Int i) in
  let s = Col_stats.of_values values in
  check Alcotest.int "distinct" 10_000 (Col_stats.distinct s);
  let sel = Col_stats.selectivity s (Predicate.Le (Value.Int 4999)) in
  check Alcotest.bool (Printf.sprintf "le median ~ 0.5 (got %.3f)" sel) true
    (Float.abs (sel -. 0.5) < 0.05);
  let between =
    Col_stats.selectivity s (Predicate.Between (Value.Int 1000, Value.Int 2000))
  in
  check Alcotest.bool (Printf.sprintf "between ~ 0.1 (got %.3f)" between) true
    (Float.abs (between -. 0.1) < 0.05)

let test_col_stats_empty () =
  let s = Col_stats.of_values [||] in
  check Alcotest.int "count" 0 (Col_stats.count s);
  check (Alcotest.float 1e-9) "selectivity" 0.
    (Col_stats.selectivity s (Predicate.Eq (Value.Int 1)))

let prop_selectivity_in_unit_interval =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"selectivity always in [0,1]" ~count:200
       QCheck.(pair (list int) (pair int int))
       (fun (values, (a, b)) ->
          let s = Col_stats.of_values (Array.of_list (List.map (fun v -> Value.Int v) values)) in
          List.for_all
            (fun cmp ->
               let x = Col_stats.selectivity s cmp in
               x >= 0. && x <= 1.)
            [
              Predicate.Eq (Value.Int a);
              Predicate.Ne (Value.Int a);
              Predicate.Lt (Value.Int a);
              Predicate.Ge (Value.Int a);
              Predicate.Between (Value.Int (min a b), Value.Int (max a b));
              Predicate.In [ Value.Int a; Value.Int b ];
            ]))

let suite = [
  Alcotest.test_case "pre cost monotone in selectivity" `Quick
    test_pre_cost_monotone_in_selectivity;
  Alcotest.test_case "extremes ranked correctly" `Quick test_extremes_ranked_correctly;
  Alcotest.test_case "optimizer never terrible" `Slow test_optimizer_pick_never_terrible;
  Alcotest.test_case "estimates survive flash-cost changes" `Quick
    test_estimate_scales_with_flash_cost;
  Alcotest.test_case "breakdown sums to total" `Quick test_estimate_breakdown_sums;
  Alcotest.test_case "full estimate ignores hidden data" `Quick
    test_full_estimate_ignores_hidden_data;
  Alcotest.test_case "emission priced after aggregation and LIMIT" `Quick
    test_emission_priced_after_aggregation_and_limit;
  Alcotest.test_case "col stats exact mode" `Quick test_col_stats_exact_mode;
  Alcotest.test_case "col stats histogram mode" `Quick test_col_stats_histogram_mode;
  Alcotest.test_case "col stats empty" `Quick test_col_stats_empty;
  prop_selectivity_in_unit_interval;
]
