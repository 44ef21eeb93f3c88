(* The multi-session scheduler: bit-identity of the single-session
   infinite-quantum path against Exec.run, the interleaving-equivalence
   property (any policy/quantum/session count returns serial rows, spy
   reports and audits), admission control under a tight arena, and
   deadline / explicit cancellation with clean release. *)

module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Spy = Ghost_public.Spy
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Privacy = Ghostdb.Privacy
module Scheduler = Ghost_sched.Scheduler
module Workload_driver = Ghost_sched.Workload_driver

let tiny_db () =
  Ghost_db.of_schema (Medical.schema ()) (Medical.generate Medical.tiny)

let best_plan db sql =
  match Ghost_db.plans db sql with
  | (plan, _) :: _ -> plan
  | [] -> Alcotest.fail ("no plan for " ^ sql)

let ram_in_use db = Ram.in_use (Device.ram (Ghost_db.device db))

let strip_session (e : Trace.event) = { e with Trace.session = None }

let completed_exn sched id =
  match Scheduler.outcome sched id with
  | Some (Scheduler.Completed r) -> r
  | Some (Scheduler.Cancelled reason) ->
    Alcotest.failf "session %d cancelled (%s)" id reason
  | Some (Scheduler.Failed e) ->
    Alcotest.failf "session %d failed: %s" id (Printexc.to_string e)
  | None -> Alcotest.failf "session %d not finished" id

(* Acceptance bar: one session, infinite quantum, FIFO — every query of
   the demo suite must reproduce Exec.run bit for bit on a second
   identical database: rows, operator stats, usage, device clock, trace
   (modulo the session stamp). *)
let test_serial_bit_identity () =
  let db_serial = tiny_db () in
  let db_sched = tiny_db () in
  let sched =
    Scheduler.create (Ghost_db.catalog db_sched) (Ghost_db.public db_sched)
  in
  List.iter
    (fun (name, sql) ->
       let r_serial = Ghost_db.run_plan db_serial (best_plan db_serial sql) in
       let id = Scheduler.submit sched ~label:name (best_plan db_sched sql) in
       Scheduler.run sched;
       let r = completed_exn sched id in
       Alcotest.(check bool) (name ^ ": rows") true (r.Exec.rows = r_serial.Exec.rows);
       Alcotest.(check bool) (name ^ ": ops") true (r.Exec.ops = r_serial.Exec.ops);
       Alcotest.(check bool) (name ^ ": total usage") true
         (r.Exec.total = r_serial.Exec.total);
       Alcotest.(check (float 0.)) (name ^ ": elapsed")
         r_serial.Exec.elapsed_us r.Exec.elapsed_us;
       Alcotest.(check int) (name ^ ": ram peak") r_serial.Exec.ram_peak r.Exec.ram_peak)
    Queries.all;
  Alcotest.(check (float 0.)) "device clocks agree"
    (Device.elapsed_us (Ghost_db.device db_serial))
    (Device.elapsed_us (Ghost_db.device db_sched));
  let ev_serial = Trace.events (Ghost_db.trace db_serial) in
  let ev_sched =
    List.map strip_session (Trace.events (Ghost_db.trace db_sched))
  in
  Alcotest.(check bool) "traces identical modulo session stamp" true
    (ev_serial = ev_sched);
  Alcotest.(check int) "arena clean" 0 (ram_in_use db_sched)

(* The interleaving-equivalence property (random tree schemas reused
   from the end-to-end suite): whatever the policy, quantum and session
   count, every session returns the rows, spy report and audit verdict
   of the same query run serially on an identical database. *)
module T = Test_random_schema

let policies = [| Scheduler.Fifo; Scheduler.Round_robin; Scheduler.Cost_based |]
let quanta = [| 40.; 250.; 2000.; infinity |]

let run_interleaving_case ?device_config seed =
  let rng = Rng.create (seed lxor 0x3c6ef3) in
  let tables = T.random_tables rng in
  let schema = T.schema_of_tables tables in
  let rows = T.random_rows rng tables in
  let db_serial = Ghost_db.of_schema ?device_config schema rows in
  let db_sched = Ghost_db.of_schema ?device_config schema rows in
  let n_sessions = Rng.int_in rng 2 6 in
  let queries = List.init n_sessions (fun _ -> T.random_query rng schema) in
  let serial =
    List.map
      (fun (sql, ordered) ->
         Ghost_db.clear_trace db_serial;
         let r = Ghost_db.run_plan db_serial (best_plan db_serial sql) in
         (sql, ordered, r.Exec.rows, Ghost_db.spy_report db_serial))
      queries
  in
  let policy = Rng.pick rng policies in
  let quantum_us = Rng.pick rng quanta in
  let sched =
    Scheduler.create ~policy ~quantum_us (Ghost_db.catalog db_sched)
      (Ghost_db.public db_sched)
  in
  let ids =
    List.map (fun (sql, _) -> Scheduler.submit sched (best_plan db_sched sql)) queries
  in
  Scheduler.run sched;
  let ok = ref true in
  let trace = Ghost_db.trace db_sched in
  List.iter2
    (fun id (sql, ordered, want_rows, want_spy) ->
       (match Scheduler.outcome sched id with
        | Some (Scheduler.Completed r) ->
          let same =
            if ordered then r.Exec.rows = want_rows
            else T.rows_equal r.Exec.rows want_rows
          in
          if not same then begin
            Printf.printf "SCHED ROW MISMATCH seed=%d %s sql=%s got=%d want=%d\n"
              seed (Scheduler.policy_name policy) sql (List.length r.Exec.rows)
              (List.length want_rows);
            ok := false
          end;
          if Spy.analyze ~session:id trace <> want_spy then begin
            Printf.printf "SCHED SPY MISMATCH seed=%d %s q=%g sql=%s\n" seed
              (Scheduler.policy_name policy) quantum_us sql;
            ok := false
          end;
          let v = Privacy.audit ~session:id trace in
          if not v.Privacy.ok then begin
            Printf.printf "SCHED SESSION AUDIT FAILED seed=%d sql=%s\n" seed sql;
            ok := false
          end
        | outcome ->
          Printf.printf "SCHED NOT COMPLETED seed=%d sql=%s (%s)\n" seed sql
            (match outcome with
             | Some (Scheduler.Cancelled reason) -> "cancelled: " ^ reason
             | Some (Scheduler.Failed e) -> Printexc.to_string e
             | Some (Scheduler.Completed _) | None -> "pending");
          ok := false))
    ids serial;
  let v = Privacy.audit trace in
  if not v.Privacy.ok then begin
    Printf.printf "SCHED GLOBAL AUDIT FAILED seed=%d\n" seed;
    ok := false
  end;
  if ram_in_use db_sched <> 0 then begin
    Printf.printf "SCHED RAM LEAK seed=%d: %d B\n" seed (ram_in_use db_sched);
    ok := false
  end;
  !ok

let prop_interleaving =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"any policy/quantum/session-count = serial rows, spy, audit"
       ~count:25
       QCheck.(int_range 0 1_000_000)
       run_interleaving_case)

(* The same property on a Compact link, where the spy report carries
   each message's encoded size: a label dictionary that outlived its
   frame made a session's sizes depend on what the sessions before it
   had sent. Seeds 10387 and 10722 caught it and stay as fixed cases. *)
let compact_config = { Device.default_config with Device.wire_format = Ghost_wire.Wire.Compact }

let prop_interleaving_compact =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"compact link: any policy/quantum/session-count = serial"
       ~count:25
       QCheck.(int_range 0 1_000_000)
       (run_interleaving_case ~device_config:compact_config))

let test_compact_regression_seeds () =
  List.iter
    (fun seed ->
       if not (run_interleaving_case ~device_config:compact_config seed) then
         Alcotest.failf "compact link, seed %d: a session differs from its serial run" seed)
    [ 10387; 10722 ]

(* Admission control: with working-RAM requests sized so at most one
   fits, sessions queue and the arena never over-commits; everyone
   still completes. *)
let test_admission_queues () =
  let db = tiny_db () in
  let ram = Device.ram (Ghost_db.device db) in
  let budget = Ram.budget ram in
  let sched =
    Scheduler.create ~quantum_us:500.
      (Ghost_db.catalog db) (Ghost_db.public db)
  in
  let working_ram = (budget / 2) + 1024 in
  let ids =
    List.map
      (fun (_, sql) -> Scheduler.submit sched ~working_ram (best_plan db sql))
      [ List.nth Queries.all 0; List.nth Queries.all 1; List.nth Queries.all 2 ]
  in
  Alcotest.(check bool) "first step does work" true (Scheduler.step sched);
  let st = Scheduler.stats sched in
  Alcotest.(check int) "one admitted" 1 st.Scheduler.runnable;
  Alcotest.(check int) "two queued" 2 st.Scheduler.queued;
  Alcotest.(check bool) "over-committed reservations blocked" true
    (Ram.in_use ram <= budget);
  Scheduler.run sched;
  List.iter (fun id -> ignore (completed_exn sched id)) ids;
  let st = Scheduler.stats sched in
  Alcotest.(check int) "all finished" 3 st.Scheduler.finished;
  Alcotest.(check bool) "admission was blocked at least once" true
    (st.Scheduler.admission_blocked > 0);
  Alcotest.(check int) "arena clean" 0 (Ram.in_use ram)

(* A deadline expires mid-execution: the session is cancelled with
   reason "deadline", its RAM and scratch come back, and a sibling
   session still completes. *)
let test_deadline_cancel () =
  let db = tiny_db () in
  let sched =
    Scheduler.create ~quantum_us:200. (Ghost_db.catalog db) (Ghost_db.public db)
  in
  let doomed =
    Scheduler.submit sched ~deadline_us:50. (best_plan db Queries.demo)
  in
  let survivor = Scheduler.submit sched (best_plan db Queries.demo) in
  Scheduler.run sched;
  (match Scheduler.outcome sched doomed with
   | Some (Scheduler.Cancelled "deadline") -> ()
   | _ -> Alcotest.fail "expected a deadline cancellation");
  ignore (completed_exn sched survivor);
  Alcotest.(check int) "arena clean" 0 (ram_in_use db)

(* Explicit cancellation of a suspended session mid-flight. *)
let test_explicit_cancel () =
  let db = tiny_db () in
  let db_ref = tiny_db () in
  let sched =
    Scheduler.create ~quantum_us:200. (Ghost_db.catalog db) (Ghost_db.public db)
  in
  let victim = Scheduler.submit sched (best_plan db Queries.demo) in
  let survivor = Scheduler.submit sched (best_plan db Queries.demo) in
  for _ = 1 to 3 do
    ignore (Scheduler.step sched)
  done;
  Scheduler.cancel sched victim;
  Scheduler.cancel sched victim;  (* idempotent *)
  Scheduler.run sched;
  (match Scheduler.outcome sched victim with
   | Some (Scheduler.Cancelled _) -> ()
   | _ -> Alcotest.fail "expected the victim cancelled");
  let r = completed_exn sched survivor in
  let r_ref = Ghost_db.run_plan db_ref (best_plan db_ref Queries.demo) in
  Alcotest.(check bool) "survivor rows = serial" true
    (T.rows_equal r.Exec.rows r_ref.Exec.rows);
  let v = Privacy.audit ~session:survivor (Ghost_db.trace db) in
  Alcotest.(check bool) "survivor audit ok" true v.Privacy.ok;
  Alcotest.(check int) "arena clean" 0 (ram_in_use db)

(* Round-robin actually interleaves: with a finite quantum and two
   sessions, the first completion must not monopolize the device —
   both sessions accumulate slices before either finishes. *)
let test_round_robin_interleaves () =
  let db = tiny_db () in
  let sched =
    Scheduler.create ~policy:Scheduler.Round_robin ~quantum_us:100.
      (Ghost_db.catalog db) (Ghost_db.public db)
  in
  let a = Scheduler.submit sched (best_plan db Queries.demo) in
  let b = Scheduler.submit sched (best_plan db Queries.demo) in
  Scheduler.run sched;
  let fa = Scheduler.usage sched a and fb = Scheduler.usage sched b in
  Alcotest.(check bool) "both sessions were charged" true
    (fa.Device.total_us > 0. && fb.Device.total_us > 0.);
  ignore (completed_exn sched a);
  ignore (completed_exn sched b)

(* The invalid-argument surface. *)
let test_invalid_args () =
  let db = tiny_db () in
  let expect_invalid label f =
    match f () with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" label
    | exception Invalid_argument _ -> ()
  in
  let demo = best_plan db Queries.demo in
  List.iter
    (fun fpr ->
       expect_invalid (Printf.sprintf "bloom_fpr = %g" fpr) (fun () ->
         Ghost_db.run_plan db ~bloom_fpr:fpr demo))
    [ 0.; 1.; -0.5; Float.nan; 2. ];
  expect_invalid "scheduler quantum" (fun () ->
    Scheduler.create ~quantum_us:0. (Ghost_db.catalog db) (Ghost_db.public db));
  let sched = Scheduler.create (Ghost_db.catalog db) (Ghost_db.public db) in
  expect_invalid "submit deadline" (fun () ->
    Scheduler.submit sched ~deadline_us:0. demo);
  expect_invalid "submit working_ram" (fun () ->
    Scheduler.submit sched ~working_ram:(-1) demo)

(* The closed-loop driver at a small scale: everything completes,
   latencies are measured, throughput is positive. *)
let test_driver_smoke () =
  let db = tiny_db () in
  let spec =
    { Workload_driver.default_spec with
      Workload_driver.clients = 3; queries_per_client = 2; theta = 1.0; seed = 7 }
  in
  let s =
    Workload_driver.run ~policy:Scheduler.Round_robin ~quantum_us:500. db spec
  in
  Alcotest.(check int) "all queries completed" 6 s.Workload_driver.completed;
  Alcotest.(check int) "none cancelled" 0 s.Workload_driver.cancelled;
  Alcotest.(check int) "none failed" 0 s.Workload_driver.failed;
  Alcotest.(check bool) "positive throughput" true
    (s.Workload_driver.throughput_qps > 0.);
  Alcotest.(check bool) "p50 <= p95" true
    (s.Workload_driver.latency_p50_us <= s.Workload_driver.latency_p95_us);
  Alcotest.(check int) "arena clean" 0 (ram_in_use db);
  let v = Ghost_db.audit db in
  Alcotest.(check bool) "audit ok after workload" true v.Privacy.ok

let suite =
  [
    Alcotest.test_case "single session, infinite quantum = Exec.run" `Quick
      test_serial_bit_identity;
    prop_interleaving;
    prop_interleaving_compact;
    Alcotest.test_case "compact link: regression seeds = serial" `Quick
      test_compact_regression_seeds;
    Alcotest.test_case "admission control queues on RAM pressure" `Quick
      test_admission_queues;
    Alcotest.test_case "deadline cancellation releases cleanly" `Quick
      test_deadline_cancel;
    Alcotest.test_case "explicit cancellation mid-flight" `Quick
      test_explicit_cancel;
    Alcotest.test_case "round-robin interleaves two sessions" `Quick
      test_round_robin_interleaves;
    Alcotest.test_case "invalid arguments are rejected" `Quick test_invalid_args;
    Alcotest.test_case "closed-loop driver smoke" `Quick test_driver_smoke;
  ]
