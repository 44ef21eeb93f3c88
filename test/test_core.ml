(* End-to-end tests of the GhostDB core: loader, planner, executor,
   privacy — every candidate plan must return exactly the reference
   evaluator's rows. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Predicate = Ghost_relation.Predicate
module Schema = Ghost_relation.Schema
module Bind = Ghost_sql.Bind
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Planner = Ghostdb.Planner
module Plan = Ghostdb.Plan
module Exec = Ghostdb.Exec
module Cost = Ghostdb.Cost
module Privacy = Ghostdb.Privacy
module Col_stats = Ghostdb.Col_stats
module Oblivious = Ghost_oblivious.Oblivious

let check = Alcotest.check

(* One shared tiny instance (loading is the expensive part). *)
let instance =
  lazy
    (let rows = Medical.generate Medical.tiny in
     let db = Ghost_db.of_schema (Medical.schema ()) rows in
     let refdb = Reference.db_of_rows (Ghost_db.schema db) rows in
     (db, refdb))

let rows_equal got expected =
  Reference.sort_rows got = Reference.sort_rows expected

let reference_rows db refdb sql =
  Reference.run (Ghost_db.schema db) refdb (Ghost_db.bind db sql)

let check_query_all_plans name sql =
  let db, refdb = Lazy.force instance in
  let expected = reference_rows db refdb sql in
  let panel = Ghost_db.plans db sql in
  check Alcotest.bool (name ^ ": panel non-empty") true (panel <> []);
  List.iter
    (fun (plan, _est) ->
       let result = Ghost_db.run_plan db plan in
       if not (rows_equal result.Exec.rows expected) then
         Alcotest.failf "%s: plan [%s] returned %d rows, reference %d rows" name
           plan.Plan.label (List.length result.Exec.rows) (List.length expected);
       check Alcotest.int
         (name ^ " ram released after [" ^ plan.Plan.label ^ "]")
         0
         (Ram.in_use (Device.ram (Ghost_db.device db))))
    panel

let test_all_queries_all_plans () =
  List.iter (fun (name, sql) -> check_query_all_plans name sql) Queries.all

let test_optimizer_pick_runs () =
  let db, refdb = Lazy.force instance in
  let expected = reference_rows db refdb Queries.demo in
  let result = Ghost_db.query db Queries.demo in
  check Alcotest.bool "optimizer plan correct" true (rows_equal result.Exec.rows expected);
  check Alcotest.bool "has operators" true (List.length result.Exec.ops >= 3);
  check Alcotest.bool "positive simulated time" true (result.Exec.elapsed_us > 0.)

let test_nonempty_results () =
  (* Guard against vacuous comparisons: the demo query must actually
     select something at tiny scale. *)
  let db, refdb = Lazy.force instance in
  let sql =
    Queries.demo_with ~date_selectivity:0.8 ~purpose:"Checkup" ~med_type:"Analgesic" ()
  in
  let expected = reference_rows db refdb sql in
  check Alcotest.bool "demo-shaped query selects rows" true (List.length expected > 0);
  let result = Ghost_db.query db sql in
  check Alcotest.bool "and the engine returns them" true
    (rows_equal result.Exec.rows expected)

let test_canonical_plans_differ () =
  let db, _ = Lazy.force instance in
  let q = Ghost_db.bind db Queries.demo in
  let cat = Ghost_db.catalog db in
  let p1 = Planner.all_pre cat q in
  let p2 = Planner.all_post cat q in
  check Alcotest.bool "labels differ" true (p1.Plan.label <> p2.Plan.label);
  let r1 = Ghost_db.run_plan db p1 in
  let r2 = Ghost_db.run_plan db p2 in
  check Alcotest.bool "same answer" true
    (rows_equal r1.Exec.rows r2.Exec.rows);
  (* all_post must have built at least one Bloom filter *)
  check Alcotest.bool "post plan uses bloom" true
    (List.exists
       (fun o -> String.length o.Exec.op_label >= 5 && String.sub o.Exec.op_label 0 5 = "Bloom")
       r2.Exec.ops)

let test_privacy_audit () =
  let db, _ = Lazy.force instance in
  Ghost_db.clear_trace db;
  List.iter (fun (_, sql) -> ignore (Ghost_db.query db sql)) Queries.all;
  let verdict = Ghost_db.audit db in
  if not verdict.Privacy.ok then
    Alcotest.failf "privacy audit failed: %s" (String.concat "; " verdict.Privacy.violations);
  check Alcotest.int "no outbound payload" 0 verdict.Privacy.outbound_payload_bytes;
  check Alcotest.bool "visible data entered the device" true (verdict.Privacy.inbound_bytes > 0)

let test_spy_sees_only_public () =
  let db, _ = Lazy.force instance in
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  let report = Ghost_db.spy_report db in
  check Alcotest.int "device leaked nothing" 0
    report.Ghost_public.Spy.device_outbound_payload_bytes;
  check Alcotest.bool "spy saw the query" true
    (report.Ghost_public.Spy.queries_observed <> [])

let test_hidden_predicates_never_reach_public () =
  (* Defense in depth: asking the public store for a hidden column
     raises. *)
  let db, _ = Lazy.force instance in
  let public = Ghost_db.public db in
  try
    ignore
      (Ghost_public.Public_store.select_ids public ~trace:(Ghost_db.trace db)
         (Predicate.make ~table:"Visit" ~column:"Purpose"
            (Predicate.Eq (Value.Str "Sclerosis"))));
    Alcotest.fail "expected Hidden_column"
  with Ghost_public.Public_store.Hidden_column { table = "Visit"; column = "Purpose" } -> ()

let test_storage_report () =
  let db, _ = Lazy.force instance in
  let s = Ghost_db.storage db in
  check Alcotest.bool "base data stored" true (s.Catalog.base_bytes > 0);
  check Alcotest.bool "skts stored" true (s.Catalog.skt_bytes > 0);
  check Alcotest.bool "indexes stored" true (s.Catalog.attr_index_bytes > 0);
  check Alcotest.bool "key indexes stored" true (s.Catalog.key_index_bytes > 0)

let test_op_stats_consistency () =
  let db, _ = Lazy.force instance in
  let result = Ghost_db.query db Queries.demo in
  List.iter
    (fun o ->
       check Alcotest.bool (o.Exec.op_label ^ " time >= 0") true
         (o.Exec.usage.Device.total_us >= 0.);
       check Alcotest.bool (o.Exec.op_label ^ " ram >= 0") true (o.Exec.ram_peak >= 0))
    result.Exec.ops;
  let sum_ops =
    List.fold_left (fun acc o -> acc +. o.Exec.usage.Device.total_us) 0. result.Exec.ops
  in
  check Alcotest.bool "ops time <= total" true (sum_ops <= result.Exec.elapsed_us +. 1e-6)

let test_exact_post_blocks_bloom_fps () =
  (* With a deliberately terrible Bloom filter, exact verification must
     still give the correct answer. *)
  let db, refdb = Lazy.force instance in
  let sql = Queries.demo_with ~date_selectivity:0.4 () in
  let expected = reference_rows db refdb sql in
  let cat = Ghost_db.catalog db in
  let plan = Planner.all_post cat (Ghost_db.bind db sql) in
  let result = Ghost_db.run_plan db ~bloom_fpr:0.9 plan in
  check Alcotest.bool "exact despite terrible bloom" true
    (rows_equal result.Exec.rows expected)

let test_estimates_are_finite () =
  let db, _ = Lazy.force instance in
  List.iter
    (fun (_, sql) ->
       List.iter
         (fun (_, est) ->
            check Alcotest.bool "finite" true (Float.is_finite est.Cost.est_time_us);
            check Alcotest.bool "non-negative" true (est.Cost.est_time_us >= 0.))
         (Ghost_db.plans db sql))
    Queries.all

(* ---- randomized plan/query property ---- *)

let random_query rng =
  let purpose = Medical.purposes.(Rng.int rng (Array.length Medical.purposes)) in
  let med_type = Medical.medicine_types.(Rng.int rng (Array.length Medical.medicine_types)) in
  let sel = [| 0.01; 0.1; 0.3; 0.7 |].(Rng.int rng 4) in
  match Rng.int rng 4 with
  | 0 -> Queries.demo_with ~date_selectivity:sel ~purpose ~med_type ()
  | 1 ->
    Printf.sprintf
      "SELECT Pre.PreID, Pat.Age FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
       Pat.Age > %d AND Vis.Purpose = '%s' AND Pre.VisID = Vis.VisID AND Vis.PatID = \
       Pat.PatID"
      (Rng.int_in rng 20 80) purpose
  | 2 ->
    Printf.sprintf
      "SELECT Vis.VisID, Vis.Date FROM Visit Vis WHERE Vis.Purpose = '%s' AND \
       Vis.Date > '%s'"
      purpose
      (Ghost_kernel.Date.to_string (Medical.date_cutoff_for_selectivity sel))
  | _ ->
    Printf.sprintf
      "SELECT Med.Name, Pre.Quantity FROM Medicine Med, Prescription Pre WHERE \
       Med.Type = '%s' AND Pre.Quantity BETWEEN %d AND 10 AND Med.MedID = Pre.MedID"
      med_type (Rng.int_in rng 1 9)

let prop_random_plans_match_reference =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"random query: every plan = reference" ~count:25
       QCheck.(int_range 0 10_000)
       (fun seed ->
          let db, refdb = Lazy.force instance in
          let rng = Rng.create seed in
          let sql = random_query rng in
          let expected = reference_rows db refdb sql in
          let panel = Ghost_db.plans db sql in
          (* run up to 6 random plans from the panel *)
          let picked =
            List.filteri (fun i _ -> i < 6) (List.sort_uniq compare panel)
          in
          List.for_all
            (fun (plan, _) ->
               let result = Ghost_db.run_plan db plan in
               rows_equal result.Exec.rows expected)
            picked))

(* ---- index-only plans ----

   [Plan.reads_skt] is false when no step after Merge+Index reads a
   level below the root: AccessSKT then reads no SKT row at all. *)

let hidden_strategies (p : Plan.t) =
  List.concat_map
    (fun (g : Plan.group) ->
       List.map (fun (h : Plan.hidden_pred) -> (g.Plan.g_table, h.Plan.h_strategy))
         g.Plan.g_hidden)
    p.Plan.groups

let any_plan (_ : Plan.t) = true
let indexed_only p = List.for_all (fun (_, s) -> s = Plan.H_index) (hidden_strategies p)
let checks table p = List.mem (table, Plan.H_check) (hidden_strategies p)

let filters table ~post (p : Plan.t) =
  List.exists
    (fun (g : Plan.group) ->
       g.Plan.g_table = table && g.Plan.g_visible <> [] && Plan.post_filtered g = post)
    p.Plan.groups

let count_quantity lo hi =
  Printf.sprintf
    "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN %d AND %d" lo hi

let count_purpose purpose =
  Printf.sprintf
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = '%s' AND \
     Vis.VisID = Pre.VisID"
    purpose

let count_bmi =
  "SELECT COUNT(*) FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
   Pat.BodyMassIndex >= 30.00 AND Vis.PatID = Pat.PatID AND Pre.VisID = Vis.VisID"

let by_medicine_type =
  "SELECT Pre.PreID FROM Medicine Med, Prescription Pre WHERE Med.Type = \
   'Antibiotic' AND Med.MedID = Pre.MedID"

let grouped_by_purpose =
  "SELECT Vis.Purpose, COUNT(*) FROM Prescription Pre, Visit Vis WHERE \
   Pre.Quantity BETWEEN 8 AND 10 AND Vis.VisID = Pre.VisID GROUP BY Vis.Purpose"

let query name = List.assoc name Queries.all

(* (case, SQL, the panel plans it covers, [Plan.reads_skt] on them) *)
let reads_skt_cases =
  [
    ("count_quantity", count_quantity 8 10, any_plan, false);
    ("count_purpose indexed", count_purpose "Sclerosis", indexed_only, false);
    ("count_bmi indexed", count_bmi, indexed_only, false);
    ("range_hidden", query "range_hidden", any_plan, false);
    ("hidden_only indexed", query "hidden_only", indexed_only, false);
    ("Medicine pre-filtered", by_medicine_type, filters "Medicine" ~post:false, false);
    ("demo", Queries.demo, any_plan, true);
    ("deep_climb", query "deep_climb", any_plan, true);
    ("Medicine post-filtered", by_medicine_type, filters "Medicine" ~post:true, true);
    ("Visit.Purpose checked", query "hidden_only", checks "Visit", true);
    ("grouped by Visit.Purpose", grouped_by_purpose, any_plan, true);
  ]

let test_reads_skt_cases () =
  let db, _ = Lazy.force instance in
  let cat = Ghost_db.catalog db in
  List.iter
    (fun (name, sql, covers, expected) ->
       let plans = List.filter covers (List.map fst (Ghost_db.plans db sql)) in
       check Alcotest.bool (name ^ ": covers a panel plan") true (plans <> []);
       List.iter
         (fun p ->
            let case mode = Printf.sprintf "%s [%s]" name (Plan.with_mode p mode).Plan.label in
            check Alcotest.bool (case Oblivious.Off) expected (Plan.reads_skt p);
            check Alcotest.bool (case Oblivious.Pad) expected
              (Plan.reads_skt (Plan.with_mode p Oblivious.Pad));
            check Alcotest.bool (case Oblivious.Full) true
              (Plan.reads_skt (Plan.with_mode p Oblivious.Full)))
         plans;
       check Alcotest.bool (name ^ ": the oblivious plan") true
         (Plan.reads_skt (Planner.oblivious cat (Ghost_db.bind db sql))))
    reads_skt_cases

let small_instance =
  lazy
    (let rows = Medical.generate Medical.small in
     let db = Ghost_db.of_schema (Medical.schema ()) rows in
     (db, Reference.db_of_rows (Ghost_db.schema db) rows))

(* Every panel plan of the cases' queries, plus the oblivious plan,
   returns the reference rows, and the SKT scan reads Flash exactly when
   [Plan.reads_skt] says it does. A plan with [H_check] predicates reads
   their columns inside the same operator, so only the plans without
   one have their pages counted. *)
let skt_pages_follow_reads_skt (db, refdb) =
  let sqls = List.sort_uniq compare (List.map (fun (_, sql, _, _) -> sql) reads_skt_cases) in
  let probed = ref 0 and skipped = ref 0 in
  List.iter
    (fun sql ->
       let expected = reference_rows db refdb sql in
       let plans =
         Planner.oblivious (Ghost_db.catalog db) (Ghost_db.bind db sql)
         :: List.map fst (Ghost_db.plans db sql)
       in
       List.iter
         (fun (p : Plan.t) ->
            let r = Ghost_db.run_plan db p in
            if not (rows_equal r.Exec.rows expected) then
              Alcotest.failf "%s: plan [%s] differs from the reference" sql p.Plan.label;
            let scan =
              List.find
                (fun o -> o.Exec.op_label = "AccessSKT" || o.Exec.op_label = "BoundScan")
                r.Exec.ops
            in
            let pages = scan.Exec.usage.Device.flash_page_reads in
            let case = Printf.sprintf "%s [%s]: SKT pages read" sql p.Plan.label in
            if List.exists (fun (_, s) -> s = Plan.H_check) (hidden_strategies p) then ()
            else if not (Plan.reads_skt p) then begin
              check Alcotest.int case 0 pages;
              if scan.Exec.tuples_in > 0 then incr skipped
            end
            else if scan.Exec.tuples_in > 0 then begin
              check Alcotest.bool case true (pages >= 1);
              incr probed
            end)
         plans)
    sqls;
  check Alcotest.bool "index-only runs had candidates" true (!skipped > 0);
  check Alcotest.bool "probing runs had candidates" true (!probed > 0)

let test_index_only_plans_tiny () = skt_pages_follow_reads_skt (Lazy.force instance)
let test_index_only_plans_small () = skt_pages_follow_reads_skt (Lazy.force small_instance)

(* Skipping the probe is decided from the plan alone: under [Pad], an
   index-only shape shows the spy the same trace for two hidden
   constants of the same length. *)
let test_index_only_pad_fingerprint () =
  let db, _ = Lazy.force instance in
  let cat = Ghost_db.catalog db in
  let fingerprint sql =
    let plan = Plan.with_mode (Planner.all_pre cat (Ghost_db.bind db sql)) Oblivious.Pad in
    check Alcotest.bool (sql ^ ": index-only") false (Plan.reads_skt plan);
    Ghost_db.clear_trace db;
    ignore (Ghost_db.run_plan db plan);
    Oblivious.fingerprint (Ghost_db.trace db)
  in
  check Alcotest.string "Purpose constants"
    (fingerprint (count_purpose "Sclerosis"))
    (fingerprint (count_purpose "Influenza"));
  check Alcotest.string "Quantity bounds"
    (fingerprint (count_quantity 1 9))
    (fingerprint (count_quantity 8 9))

(* ---- counted plans ----

   [Plan.count_source] picks out a COUNT( * ) whose only selection is
   one indexed hidden predicate: the executor then sums the directory
   counts of the predicate's lists and reads no id. *)

let count_two_hidden =
  "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Pre.Quantity BETWEEN 8 AND \
   10 AND Vis.Purpose = 'Sclerosis' AND Vis.VisID = Pre.VisID"

let count_hidden_and_visible =
  "SELECT COUNT(*) FROM Medicine Med, Prescription Pre, Visit Vis WHERE Vis.Purpose = \
   'Sclerosis' AND Med.Type = 'Antibiotic' AND Med.MedID = Pre.MedID AND Vis.VisID = \
   Pre.VisID"

let count_a_column =
  "SELECT COUNT(Pre.Quantity) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 8 AND 10"

(* (case, SQL, the panel plans it covers, [Plan.count_source] is set) *)
let count_source_cases =
  [
    ("count_quantity indexed", count_quantity 8 10, indexed_only, true);
    ("count_purpose indexed", count_purpose "Sclerosis", indexed_only, true);
    ("count_bmi indexed", count_bmi, indexed_only, true);
    ("count_quantity checked", count_quantity 8 10, checks "Prescription", false);
    ("count_purpose checked", count_purpose "Sclerosis", checks "Visit", false);
    ("two hidden predicates", count_two_hidden, any_plan, false);
    ("a visible predicate beside", count_hidden_and_visible, any_plan, false);
    ("COUNT of a column", count_a_column, any_plan, false);
    ("grouped by Visit.Purpose", grouped_by_purpose, any_plan, false);
    ("range_hidden", query "range_hidden", any_plan, false);
  ]

let test_count_source_cases () =
  let db, _ = Lazy.force instance in
  let cat = Ghost_db.catalog db in
  List.iter
    (fun (name, sql, covers, expected) ->
       let plans = List.filter covers (List.map fst (Ghost_db.plans db sql)) in
       check Alcotest.bool (name ^ ": covers a panel plan") true (plans <> []);
       List.iter
         (fun p ->
            let counted m = Plan.count_source ~tombstones:0 (Plan.with_mode p m) <> None in
            let case = Printf.sprintf "%s [%s]" name p.Plan.label in
            check Alcotest.bool (case ^ " Off") expected (counted Oblivious.Off);
            check Alcotest.bool (case ^ " Pad") expected (counted Oblivious.Pad);
            check Alcotest.bool (case ^ " Full") false (counted Oblivious.Full);
            check Alcotest.bool (case ^ " tombstoned") false
              (Plan.count_source ~tombstones:1 p <> None))
         plans;
       check Alcotest.bool (name ^ ": the oblivious plan") false
         (Plan.count_source ~tombstones:0 (Planner.oblivious cat (Ghost_db.bind db sql))
            <> None))
    count_source_cases

let find_op label (r : Exec.result) =
  match List.find_opt (fun o -> o.Exec.op_label = label) r.Exec.ops with
  | Some o -> o
  | None -> Alcotest.failf "no %s operator" label

(* A counted plan returns the reference count, leaves Merge+Index and
   AccessSKT empty and programs no scratch page. Its index lookup reads
   what the same plan reads before any list when it projects the root
   key instead, and the run as a whole reads fewer pages: no list is
   read. *)
let counted_plans_read_no_id (db, refdb) =
  let total f (r : Exec.result) =
    List.fold_left (fun n o -> n + f o.Exec.usage) 0 r.Exec.ops
  in
  List.iter
    (fun (name, sql, covers, expected) ->
       if expected then begin
         let rows = reference_rows db refdb sql in
         List.iter
           (fun (p : Plan.t) ->
              let table, _ = Option.get (Plan.count_source ~tombstones:0 p) in
              let lookup = Printf.sprintf "IndexLookup(%s)" table in
              let r = Ghost_db.run_plan db p in
              let ids =
                let root = p.Plan.root in
                let key = (Schema.find_table (Ghost_db.schema db) root).Schema.key in
                let query =
                  { p.Plan.query with Bind.aggregate = None; projections = [ (root, key) ] }
                in
                Ghost_db.run_plan db (Plan.make ~query ~root p.Plan.groups)
              in
              let case what = Printf.sprintf "%s [%s]: %s" name p.Plan.label what in
              if not (rows_equal r.Exec.rows rows) then Alcotest.failf "%s" (case "rows");
              List.iter
                (fun label ->
                   check (Alcotest.float 0.) (case label) 0.
                     (find_op label r).Exec.usage.Device.total_us)
                [ "Merge+Index"; "AccessSKT" ];
              check Alcotest.int (case "pages programmed") 0
                (total (fun u -> u.Device.flash_page_programs) r);
              let reads r = (find_op lookup r).Exec.usage.Device.flash_page_reads in
              check Alcotest.bool (case "lookup reads no more than the id plan's") true
                (reads r <= reads ids);
              check Alcotest.bool (case "fewer pages than reading the ids") true
                (total (fun u -> u.Device.flash_page_reads) r
                 < total (fun u -> u.Device.flash_page_reads) ids))
           (List.filter covers (List.map fst (Ghost_db.plans db sql)))
       end)
    count_source_cases

let test_counted_plans_tiny () = counted_plans_read_no_id (Lazy.force instance)
let test_counted_plans_small () = counted_plans_read_no_id (Lazy.force small_instance)

(* Rows inserted since the load still count (the delta scan adds
   them); once a root row is tombstoned the lists overcount, so the
   executor and the estimate both go back to reading ids. *)
let test_counted_plans_after_mutations () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema (Medical.schema ()) rows in
  let sql = count_quantity 8 10 in
  let plan () = List.find indexed_only (List.map fst (Ghost_db.plans db sql)) in
  let counted () =
    (find_op "Merge+Index" (Ghost_db.run_plan db (plan ()))).Exec.tuples_out = 0
  in
  let estimated_term prefix =
    List.exists
      (fun (label, _) -> String.starts_with ~prefix label)
      (Cost.estimate (Ghost_db.catalog db) (plan ())).Cost.breakdown
  in
  let with_prescriptions rows f =
    List.map (fun (name, rs) -> (name, if name = "Prescription" then f rs else rs)) rows
  in
  let expect what rows =
    let refdb = Reference.db_of_rows (Ghost_db.schema db) rows in
    let r = Ghost_db.run_plan db (plan ()) in
    if not (rows_equal r.Exec.rows (reference_rows db refdb sql)) then
      Alcotest.failf "%s: count differs from the reference" what
  in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  let inserted =
    [| Value.Int next; Value.Int 9; Value.Int 2; Value.Date Medical.date_lo;
       Value.Int 1; Value.Int 1 |]
  in
  Ghost_db.insert db [ inserted ];
  let rows = with_prescriptions rows (fun rs -> rs @ [ inserted ]) in
  expect "after an insert" rows;
  check Alcotest.bool "counted after an insert" true (counted ());
  check Alcotest.bool "estimate counts" true (estimated_term "count(");
  let victim =
    List.find
      (fun row -> match row.(1) with Value.Int q -> q >= 8 | _ -> false)
      (List.assoc "Prescription" rows)
  in
  let victim_id = match victim.(0) with Value.Int id -> id | _ -> assert false in
  Ghost_db.delete db [ victim_id ];
  expect "after a delete" (with_prescriptions rows (List.filter (fun r -> r != victim)));
  check Alcotest.bool "reads ids after a delete" false (counted ());
  check Alcotest.bool "estimate reads the index" true (estimated_term "index(");
  check Alcotest.bool "estimate no longer counts" false (estimated_term "count(")

let suite = [
  Alcotest.test_case "all queries x all plans = reference" `Slow test_all_queries_all_plans;
  Alcotest.test_case "optimizer pick runs" `Quick test_optimizer_pick_runs;
  Alcotest.test_case "demo query non-vacuous" `Quick test_nonempty_results;
  Alcotest.test_case "canonical plans differ, agree on answer" `Quick test_canonical_plans_differ;
  Alcotest.test_case "privacy audit over full suite" `Quick test_privacy_audit;
  Alcotest.test_case "spy sees only public data" `Quick test_spy_sees_only_public;
  Alcotest.test_case "hidden predicates rejected publicly" `Quick test_hidden_predicates_never_reach_public;
  Alcotest.test_case "storage report" `Quick test_storage_report;
  Alcotest.test_case "operator stats consistency" `Quick test_op_stats_consistency;
  Alcotest.test_case "exact post beats bad bloom" `Quick test_exact_post_blocks_bloom_fps;
  Alcotest.test_case "cost estimates finite" `Quick test_estimates_are_finite;
  Alcotest.test_case "reads_skt per plan shape" `Quick test_reads_skt_cases;
  Alcotest.test_case "index-only plans: rows and SKT pages (tiny)" `Quick
    test_index_only_plans_tiny;
  Alcotest.test_case "index-only plans: rows and SKT pages (small)" `Slow
    test_index_only_plans_small;
  Alcotest.test_case "index-only plans: Pad fingerprint" `Quick
    test_index_only_pad_fingerprint;
  Alcotest.test_case "count_source per plan shape" `Quick test_count_source_cases;
  Alcotest.test_case "counted plans read no id (tiny)" `Quick test_counted_plans_tiny;
  Alcotest.test_case "counted plans read no id (small)" `Slow test_counted_plans_small;
  Alcotest.test_case "counted plans after insert and delete" `Quick
    test_counted_plans_after_mutations;
  prop_random_plans_match_reference;
]
