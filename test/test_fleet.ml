(* The device fleet: bit-identity of the one-device fleet, partitioned
   scatter-gather correctness against the reference evaluator (the
   range re-key at shard edges, root-key predicate rewriting,
   aggregates and ORDER BY/LIMIT merged fleet-side), the health state machine, failover at
   R>=2 and tagged partial results at R=1, a chaos sweep killing each
   device at every point of the scatter, the multi-device driver under
   mid-workload kills, and the fleet privacy audit. *)

module Value = Ghost_kernel.Value
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Spy = Ghost_public.Spy
module Bind = Ghost_sql.Bind
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Planner = Ghostdb.Planner
module Privacy = Ghostdb.Privacy
module Scheduler = Ghost_sched.Scheduler
module Fleet = Ghost_fleet.Fleet
module Fleet_driver = Ghost_fleet.Fleet_driver

let schema () = Medical.schema ()
let rows () = Medical.generate Medical.tiny

let fleet ?device_config ?per_device_config ~shards ~replicas () =
  Fleet.create ?device_config ?per_device_config ~topology:{ Fleet.shards; replicas }
    (schema ()) (rows ())

let reference_rows sql =
  let schema = schema () in
  let db = Reference.db_of_rows schema (rows ()) in
  Reference.run schema db (Bind.bind schema sql)

let sorted = Reference.sort_rows

let check_rows name want got =
  Alcotest.(check bool)
    (name ^ ": rows (" ^ string_of_int (List.length got) ^ " of "
     ^ string_of_int (List.length want) ^ ")")
    true
    (sorted want = sorted got)

(* One shard, one replica: the fleet is the paper's device, bit for
   bit — rows, clock and trace match a plain instance. *)
let test_single_device_bit_identity () =
  let f = fleet ~shards:1 ~replicas:1 () in
  let db = Ghost_db.of_schema (schema ()) (rows ()) in
  List.iter
    (fun (name, sql) ->
       let r_fleet = Fleet.query f sql in
       let r_plain = Ghost_db.query db sql in
       Alcotest.(check bool) (name ^ ": rows") true
         (r_fleet.Fleet.rows = r_plain.Exec.rows);
       Alcotest.(check bool) (name ^ ": complete") true r_fleet.Fleet.complete;
       Alcotest.(check (float 0.)) (name ^ ": elapsed")
         r_plain.Exec.elapsed_us r_fleet.Fleet.elapsed_us)
    Queries.all;
  Alcotest.(check (float 0.)) "device clocks agree"
    (Device.elapsed_us (Ghost_db.device db))
    (Device.elapsed_us (Ghost_db.device (Fleet.db f ~shard:0 ~replica:0)));
  Alcotest.(check bool) "traces identical" true
    (Trace.events (Ghost_db.trace db)
     = Trace.events (Ghost_db.trace (Fleet.db f ~shard:0 ~replica:0)))

(* Every demo query, several shard counts: the merged scatter-gather
   output equals the trusted reference. *)
let test_partitioned_correctness () =
  List.iter
    (fun shards ->
       let f = fleet ~shards ~replicas:1 () in
       List.iter
         (fun (name, sql) ->
            let r = Fleet.query f sql in
            Alcotest.(check bool) (name ^ ": complete") true r.Fleet.complete;
            check_rows (Printf.sprintf "%s N=%d" name shards) (reference_rows sql) r.Fleet.rows)
         Queries.all)
    [ 2; 3; 5 ]

(* The range re-key at shard edges. Tiny data's 400 root rows are a
   multiple of neither 3 nor 7, so the shards differ in size; shard s
   owns 1 + ceil(s * 400 / N) up to the next shard's first id less
   one. The first and last id of every shard select exactly their own
   row, owned by that shard. *)
let test_shard_edges () =
  let n = Medical.tiny.Medical.prescriptions in
  List.iter
    (fun shards ->
       let f = fleet ~shards ~replicas:1 () in
       let first s = 1 + (((s * n) + shards - 1) / shards) in
       for s = 0 to shards - 1 do
         List.iter
           (fun id ->
              let sql =
                Printf.sprintf
                  "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = %d" id
              in
              let what = Printf.sprintf "N=%d shard %d id %d" shards s id in
              Alcotest.(check int) (what ^ ": owner") s (Fleet.shard_of_global f id);
              let r = Fleet.query f sql in
              Alcotest.(check (list int)) (what ^ ": the row") [ id ]
                (List.map (fun row -> match row.(0) with Value.Int i -> i | _ -> -1) r.Fleet.rows);
              check_rows what (reference_rows sql) r.Fleet.rows)
           [ first s; first (s + 1) - 1 ]
       done)
    [ 3; 7 ]

(* The root ids must be exactly 1..n: a gap or a duplicate is refused. *)
let test_root_ids_refused () =
  let with_root_ids f =
    List.map
      (fun (t, rs) ->
         if t = "Prescription" then
           (t, List.map (fun row -> let row = Array.copy row in f row; row) rs)
         else (t, rs))
      (rows ())
  in
  let refused what data =
    match Fleet.create ~topology:{ Fleet.shards = 3; replicas = 1 } (schema ()) data with
    | _ -> Alcotest.failf "%s: the fleet was built" what
    | exception Invalid_argument _ -> ()
  in
  (* the last row's id moves past the end: a gap at 400 *)
  refused "a gap"
    (with_root_ids (fun row -> if row.(0) = Value.Int 400 then row.(0) <- Value.Int 401));
  refused "a duplicate"
    (with_root_ids (fun row -> if row.(0) = Value.Int 400 then row.(0) <- Value.Int 399))

(* Aggregates, ORDER BY and LIMIT are stripped from the shard
   sub-queries and re-applied over the merged multiset; the result must
   match the single-device path that folds them on the device. *)
let test_merge_aggregates_order_limit () =
  let db = Ghost_db.of_schema (schema ()) (rows ()) in
  let f = fleet ~shards:3 ~replicas:1 () in
  let unordered =
    [
      "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 4 AND 9";
      "SELECT Vis.Purpose, COUNT(*), AVG(Pre.Quantity) FROM Prescription Pre, \
       Visit Vis WHERE Vis.VisID = Pre.VisID GROUP BY Vis.Purpose";
      "SELECT MIN(Pre.PreID), MAX(Pre.PreID) FROM Prescription Pre";
    ]
  in
  List.iter
    (fun sql ->
       let r = Fleet.query f sql in
       check_rows sql (Ghost_db.query db sql).Exec.rows r.Fleet.rows)
    unordered;
  let ordered =
    [
      "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity \
       BETWEEN 5 AND 12 ORDER BY Pre.PreID DESC LIMIT 10";
      "SELECT Vis.Purpose, COUNT(*) FROM Prescription Pre, Visit Vis WHERE \
       Vis.VisID = Pre.VisID GROUP BY Vis.Purpose ORDER BY Vis.Purpose LIMIT 3";
    ]
  in
  List.iter
    (fun sql ->
       let r = Fleet.query f sql in
       Alcotest.(check bool) (sql ^ ": ordered rows") true
         ((Ghost_db.query db sql).Exec.rows = r.Fleet.rows))
    ordered

(* Root-key predicates cross the order-preserving re-key: every
   comparison shape must select exactly the global rows the
   single-device instance selects. *)
let test_root_key_predicates () =
  let db = Ghost_db.of_schema (schema ()) (rows ()) in
  let f = fleet ~shards:4 ~replicas:1 () in
  List.iter
    (fun sql ->
       let r = Fleet.query f sql in
       check_rows sql (Ghost_db.query db sql).Exec.rows r.Fleet.rows)
    [
      "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID = 123";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID = 100000";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID < 17";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID >= 380";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID BETWEEN 90 AND 110";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.PreID IN (1, 7, 200, 399, 4000)";
      "SELECT Pre.PreID, Vis.Date FROM Prescription Pre, Visit Vis WHERE Pre.PreID \
       BETWEEN 50 AND 150 AND Vis.Purpose = 'Diabetes' AND Vis.VisID = Pre.VisID";
    ]

(* The health state machine: kill/revive/probe and the organic
   error-driven transitions healthy -> suspect -> dead. *)
let test_health_machine () =
  let f = fleet ~shards:2 ~replicas:2 () in
  Alcotest.(check bool) "starts healthy" true
    (Fleet.health f ~shard:0 ~replica:0 = Fleet.Healthy);
  Fleet.kill f ~shard:0 ~replica:0;
  Alcotest.(check bool) "killed = dead" true
    (Fleet.health f ~shard:0 ~replica:0 = Fleet.Dead);
  Alcotest.(check bool) "probe on a dead device fails" false
    (Fleet.probe f ~shard:0 ~replica:0);
  Fleet.revive f ~shard:0 ~replica:0;
  Alcotest.(check bool) "revived = suspect" true
    (Fleet.health f ~shard:0 ~replica:0 = Fleet.Suspect);
  Alcotest.(check bool) "probe heals a live suspect" true
    (Fleet.probe f ~shard:0 ~replica:0);
  Alcotest.(check bool) "healthy again" true
    (Fleet.health f ~shard:0 ~replica:0 = Fleet.Healthy);
  (* error/timeout counters drive the transitions *)
  Fleet.note_error f ~shard:1 ~replica:0;
  Alcotest.(check bool) "one error = suspect" true
    (Fleet.health f ~shard:1 ~replica:0 = Fleet.Suspect);
  Fleet.note_timeout f ~shard:1 ~replica:0;
  Fleet.note_error f ~shard:1 ~replica:0;
  Alcotest.(check bool) "three consecutive failures = dead" true
    (Fleet.health f ~shard:1 ~replica:0 = Fleet.Dead);
  let stats = Fleet.replica_stats f ~shard:1 ~replica:0 in
  Alcotest.(check int) "errors counted" 2 stats.Fleet.r_errors;
  Alcotest.(check int) "timeouts counted" 1 stats.Fleet.r_timeouts;
  Alcotest.(check bool) "success heals" true
    (Fleet.note_success f ~shard:1 ~replica:1;
     Fleet.health f ~shard:1 ~replica:1 = Fleet.Healthy);
  (* a shard with every replica dead is unreachable *)
  Fleet.kill f ~shard:1 ~replica:1;
  Alcotest.(check bool) "no replica left" true
    (Fleet.pick_replica f ~shard:1 ~exclude:[] = None)

(* A device whose USB link always corrupts: transport errors surface
   as failovers and push it organically to dead; the sibling replica
   serves every query. *)
let test_organic_failover () =
  let bad ~shard ~replica =
    if shard = 0 && replica = 0 then
      { Device.default_config with
        Device.usb_fault =
          Some { Device.default_usb_fault with
                 Device.usb_seed = 99; corrupt_prob = 1.0; max_retries = 1 } }
    else Device.default_config
  in
  let f = fleet ~per_device_config:bad ~shards:2 ~replicas:2 () in
  let seen_failover = ref false in
  List.iter
    (fun (name, sql) ->
       let r = Fleet.query f sql in
       Alcotest.(check bool) (name ^ ": complete despite bad link") true
         r.Fleet.complete;
       check_rows name (reference_rows sql) r.Fleet.rows;
       List.iter
         (fun (sr : Fleet.shard_report) ->
            if sr.Fleet.sr_failed_over then seen_failover := true)
         r.Fleet.shard_reports)
    Queries.all;
  Alcotest.(check bool) "at least one failover happened" true !seen_failover;
  Alcotest.(check bool) "bad replica degraded" true
    (Fleet.health f ~shard:0 ~replica:0 <> Fleet.Healthy);
  let v = Fleet.audit f in
  Alcotest.(check bool) "fleet audit ok under failover" true v.Privacy.ok

(* Chaos sweep: kill each device at every point of the scatter (the
   hook fires before every execution attempt). At R=2 the fleet must
   fail over to a correct, complete result; at R=1 the affected shard
   must come back as a correctly-tagged partial whose surviving rows
   are exactly the reachable shards' slice. *)
let test_chaos_kill_sweep () =
  let shards = 2 in
  let sql =
    "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity \
     BETWEEN 4 AND 9"
  in
  let want = reference_rows sql in
  List.iter
    (fun replicas ->
       let f = fleet ~shards ~replicas () in
       let points = shards * replicas + 2 in
       for s = 0 to shards - 1 do
         for r = 0 to replicas - 1 do
           for point = 0 to points - 1 do
             (* heal everything from the previous iteration *)
             for s' = 0 to shards - 1 do
               for r' = 0 to replicas - 1 do
                 Fleet.revive f ~shard:s' ~replica:r'
               done
             done;
             let attempts = ref 0 in
             Fleet.set_chaos_hook f
               (Some
                  (fun ~shard:_ ~replica:_ ->
                     if !attempts = point then
                       Fleet.kill f ~shard:s ~replica:r;
                     incr attempts));
             let res = Fleet.query f sql in
             Fleet.set_chaos_hook f None;
             let label =
               Printf.sprintf "R=%d kill (%d,%d) at attempt %d" replicas s r
                 point
             in
             if replicas >= 2 then begin
               Alcotest.(check bool) (label ^ ": complete") true
                 res.Fleet.complete;
               check_rows label want res.Fleet.rows
             end
             else if res.Fleet.complete then check_rows label want res.Fleet.rows
             else begin
               Alcotest.(check (list int)) (label ^ ": tagged shard") [ s ]
                 res.Fleet.unreachable;
               (* the partial is exactly the reachable shards' slice *)
               let f_of_id id = Fleet.shard_of_global f id in
               let survivors =
                 List.filter
                   (fun row ->
                      match row.(0) with
                      | Value.Int id -> f_of_id id <> s
                      | _ -> false)
                   want
               in
               check_rows (label ^ ": partial slice") survivors res.Fleet.rows
             end
           done
         done
       done;
       Alcotest.(check bool)
         (Printf.sprintf "R=%d fleet audit ok after chaos" replicas)
         true (Fleet.audit f).Privacy.ok)
    [ 1; 2 ]

(* Interleaving equivalence across devices: the demo queries scattered
   through per-device schedulers, sliced and interleaved, must leave
   every (session, device) with the spy report of the same sub-query
   run serially on an identical fleet — and every session and device
   trace must pass the audit. *)
let interleaving_equivalence ?device_config () =
  let shards = 2 in
  let f = fleet ?device_config ~shards ~replicas:1 () in
  let f_serial = fleet ?device_config ~shards ~replicas:1 () in
  let queries = Queries.all in
  (* serial ground truth, one clean trace window per sub-query *)
  let serial =
    List.map
      (fun (name, sql) ->
         let q = Fleet.bind f_serial sql in
         ( name,
           List.init shards (fun s ->
             let db = Fleet.db f_serial ~shard:s ~replica:0 in
             Ghost_db.clear_trace db;
             let subq = Fleet.subquery f_serial ~shard:s q in
             let plan, _ = Planner.best (Ghost_db.catalog db) subq in
             let r = Ghost_db.run_plan db plan in
             (r.Exec.rows, Ghost_db.spy_report db)) ))
      queries
  in
  (* interleaved: every query's sub-queries submitted up front, then
     the per-device schedulers stepped round-robin with a small
     quantum *)
  let scheds =
    Array.init shards (fun s ->
      let db = Fleet.db f ~shard:s ~replica:0 in
      Scheduler.create ~policy:Scheduler.Round_robin ~quantum_us:500.
        (Ghost_db.catalog db) (Ghost_db.public db))
  in
  let ids =
    List.map
      (fun (name, sql) ->
         let q = Fleet.bind f sql in
         ( name,
           List.init shards (fun s ->
             let db = Fleet.db f ~shard:s ~replica:0 in
             let subq = Fleet.subquery f ~shard:s q in
             let plan, _ = Planner.best (Ghost_db.catalog db) subq in
             Scheduler.submit scheds.(s) ~label:name plan) ))
      queries
  in
  let rec pump () =
    let progressed = ref false in
    Array.iter (fun sched -> if Scheduler.step sched then progressed := true) scheds;
    if !progressed then pump ()
  in
  pump ();
  List.iter2
    (fun (name, sessions) (name', truth) ->
       Alcotest.(check string) "mix order" name name';
       List.iteri
         (fun s (id, (want_rows, want_spy)) ->
            let db = Fleet.db f ~shard:s ~replica:0 in
            let trace = Ghost_db.trace db in
            (match Scheduler.outcome scheds.(s) id with
             | Some (Scheduler.Completed r) ->
               Alcotest.(check bool)
                 (Printf.sprintf "%s shard %d: rows" name s)
                 true
                 (sorted r.Exec.rows = sorted want_rows)
             | _ -> Alcotest.failf "%s shard %d: not completed" name s);
            Alcotest.(check bool)
              (Printf.sprintf "%s shard %d: session spy report" name s)
              true
              (Spy.analyze ~session:id trace = want_spy);
            Alcotest.(check bool)
              (Printf.sprintf "%s shard %d: session audit" name s)
              true (Privacy.audit ~session:id trace).Privacy.ok)
         (List.combine sessions truth))
    ids serial;
  List.iter
    (fun (_, v) -> Alcotest.(check bool) "device audit" true v.Privacy.ok)
    (Fleet.audits f)

(* On both link formats: a Compact link's spy report carries encoded
   message sizes, which must not depend on the sub-queries that shared
   the link before. *)
let test_interleaving_equivalence () =
  interleaving_equivalence ();
  interleaving_equivalence
    ~device_config:{ Device.default_config with Device.wire_format = Ghost_wire.Wire.Compact }
    ()

let driver_spec =
  { Fleet_driver.default_spec with Fleet_driver.clients = 6; queries_per_client = 3 }

(* The closed-loop driver on a healthy fleet: every query completes,
   merged rows match the reference, audits pass. *)
let test_driver_healthy () =
  let f = fleet ~shards:2 ~replicas:1 () in
  let want = List.map (fun (name, sql) -> (name, reference_rows sql)) Queries.all in
  let ok = ref true in
  let summary =
    Fleet_driver.run f driver_spec ~on_outcome:(fun o ->
      if not o.Fleet_driver.qo_complete then ok := false;
      let expect = List.assoc o.Fleet_driver.qo_name want in
      if sorted o.Fleet_driver.qo_rows <> sorted expect then ok := false)
  in
  Alcotest.(check bool) "all outcomes complete and correct" true !ok;
  Alcotest.(check int) "all queries done" 18 summary.Fleet_driver.completed;
  Alcotest.(check int) "no partials" 0 summary.Fleet_driver.partial;
  Alcotest.(check (float 0.001)) "availability 1" 1.0
    summary.Fleet_driver.availability;
  Alcotest.(check bool) "fleet audit" true (Fleet.audit f).Privacy.ok

(* Mid-workload device kill at R=2: zero queries lost — every one
   completes with a correct result via failover. *)
let test_driver_kill_replicated () =
  let f = fleet ~shards:2 ~replicas:2 () in
  let want = List.map (fun (name, sql) -> (name, reference_rows sql)) Queries.all in
  let ok = ref true in
  let kills =
    [ { Fleet_driver.kill_at_us = 2_000.; kill_shard = 0; kill_replica = 0 } ]
  in
  let summary =
    Fleet_driver.run f driver_spec ~kills ~on_outcome:(fun o ->
      if not o.Fleet_driver.qo_complete then ok := false;
      let expect = List.assoc o.Fleet_driver.qo_name want in
      if sorted o.Fleet_driver.qo_rows <> sorted expect then ok := false)
  in
  Alcotest.(check bool) "dead replica" true
    (Fleet.health f ~shard:0 ~replica:0 = Fleet.Dead);
  Alcotest.(check bool) "every query complete and correct" true !ok;
  Alcotest.(check int) "zero lost" 18 summary.Fleet_driver.completed;
  Alcotest.(check int) "zero partial" 0 summary.Fleet_driver.partial;
  Alcotest.(check bool) "fleet audit after kill" true (Fleet.audit f).Privacy.ok

(* Mid-workload device kill at R=1: every affected query degrades to a
   partial tagged with exactly the dead shard; the rest complete. *)
let test_driver_kill_unreplicated () =
  let f = fleet ~shards:2 ~replicas:1 () in
  let ok = ref true in
  let kills =
    [ { Fleet_driver.kill_at_us = 2_000.; kill_shard = 1; kill_replica = 0 } ]
  in
  let summary =
    Fleet_driver.run f driver_spec ~kills ~on_outcome:(fun o ->
      if not o.Fleet_driver.qo_complete
         && o.Fleet_driver.qo_unreachable <> [ 1 ]
      then ok := false)
  in
  Alcotest.(check bool) "partials tagged with the dead shard" true !ok;
  Alcotest.(check bool) "some queries degraded" true
    (summary.Fleet_driver.partial > 0);
  Alcotest.(check int) "every query terminated" 18
    (summary.Fleet_driver.completed + summary.Fleet_driver.partial);
  Alcotest.(check bool) "availability < 1" true
    (summary.Fleet_driver.availability < 1.0);
  Alcotest.(check bool) "fleet audit after kill" true (Fleet.audit f).Privacy.ok

let suite =
  [
    Alcotest.test_case "N=1 R=1 is bit-identical to the seed path" `Quick
      test_single_device_bit_identity;
    Alcotest.test_case "scatter-gather equals the reference (N=2,3,5)" `Quick
      test_partitioned_correctness;
    Alcotest.test_case "aggregates / ORDER BY / LIMIT merge fleet-side" `Quick
      test_merge_aggregates_order_limit;
    Alcotest.test_case "root-key predicates cross the re-key" `Quick
      test_root_key_predicates;
    Alcotest.test_case "range re-key at shard edges (N=3,7)" `Quick test_shard_edges;
    Alcotest.test_case "root ids must be exactly 1..n" `Quick test_root_ids_refused;
    Alcotest.test_case "health machine: kill, revive, probe, transitions" `Quick
      test_health_machine;
    Alcotest.test_case "organic failover on a corrupting link" `Quick
      test_organic_failover;
    Alcotest.test_case "chaos sweep: kill every device at every point" `Quick
      test_chaos_kill_sweep;
    Alcotest.test_case "interleaved scatter = serial spy reports and audits"
      `Quick test_interleaving_equivalence;
    Alcotest.test_case "driver: healthy fleet completes everything" `Quick
      test_driver_healthy;
    Alcotest.test_case "driver: mid-workload kill at R=2 loses nothing" `Quick
      test_driver_kill_replicated;
    Alcotest.test_case "driver: mid-workload kill at R=1 tags partials" `Quick
      test_driver_kill_unreplicated;
  ]
