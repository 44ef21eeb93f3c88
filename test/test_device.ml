(* Tests for the secure-device model: RAM arena, trace, accounting. *)

module Ram = Ghost_device.Ram
module Trace = Ghost_device.Trace
module Device = Ghost_device.Device
module Flash = Ghost_flash.Flash
module Metrics = Ghost_metrics.Metrics
module Json = Ghost_metrics.Json

let check = Alcotest.check

let test_ram_budget_enforced () =
  let r = Ram.create ~budget:100 in
  let c = Ram.alloc r ~label:"a" 60 in
  check Alcotest.int "in use" 60 (Ram.in_use r);
  (try
     ignore (Ram.alloc r ~label:"b" 50);
     Alcotest.fail "expected Ram_exceeded"
   with Ram.Ram_exceeded { requested = 50; in_use = 60; budget = 100; _ } -> ()
      | Ram.Ram_exceeded _ -> Alcotest.fail "wrong payload");
  Ram.free r c;
  check Alcotest.int "freed" 0 (Ram.in_use r);
  let c2 = Ram.alloc r ~label:"b" 100 in
  Ram.free r c2;
  Ram.free r c2;
  check Alcotest.int "double free ignored" 0 (Ram.in_use r)

let test_ram_peak_and_scope () =
  let r = Ram.create ~budget:1000 in
  let s = Ram.open_scope r in
  let a = Ram.alloc r ~label:"a" 300 in
  let b = Ram.alloc r ~label:"b" 200 in
  Ram.free r b;
  Ram.free r a;
  check Alcotest.int "scope peak" 500 (Ram.close_scope r s);
  check Alcotest.int "global peak" 500 (Ram.peak r);
  let s2 = Ram.open_scope r in
  let c = Ram.alloc r ~label:"c" 100 in
  Ram.free r c;
  check Alcotest.int "second scope sees only its window" 100 (Ram.close_scope r s2)

let test_ram_resize () =
  let r = Ram.create ~budget:100 in
  let c = Ram.alloc r ~label:"buf" 10 in
  Ram.resize r c 90;
  check Alcotest.int "resized" 90 (Ram.in_use r);
  (try
     Ram.resize r c 101;
     Alcotest.fail "expected Ram_exceeded"
   with Ram.Ram_exceeded _ -> ());
  Ram.resize r c 5;
  check Alcotest.int "shrunk" 5 (Ram.in_use r);
  Ram.free r c

let test_ram_with_alloc_on_exception () =
  let r = Ram.create ~budget:100 in
  (try Ram.with_alloc r ~label:"x" 50 (fun _ -> failwith "boom") with Failure _ -> ());
  check Alcotest.int "freed after raise" 0 (Ram.in_use r)

let test_trace_spy_visibility () =
  let t = Trace.create () in
  Trace.record t Trace.Pc_to_device (Trace.Id_list { table = "Visit"; count = 3 }) ~bytes:12;
  Trace.record t Trace.Device_to_display (Trace.Result_tuples { count = 1 }) ~bytes:20;
  Trace.record t Trace.Server_to_pc (Trace.Query_text "SELECT ...") ~bytes:10;
  check Alcotest.int "all events" 3 (List.length (Trace.events t));
  check Alcotest.int "spy sees 2" 2 (List.length (Trace.spy_events t));
  check Alcotest.bool "display is not spy-visible" false
    (List.exists
       (fun e -> e.Trace.link = Trace.Device_to_display)
       (Trace.spy_events t))

let test_device_clock () =
  let trace = Trace.create () in
  let d = Device.create ~trace () in
  check (Alcotest.float 1e-9) "starts at 0" 0. (Device.elapsed_us d);
  Device.cpu d 500;
  (* 50 MIPS -> 10 us *)
  check (Alcotest.float 1e-9) "cpu time" 10. (Device.cpu_time_us d);
  Device.receive d (Trace.Id_list { table = "T"; count = 1 }) ~bytes:1500;
  (* 12 Mbit/s -> 1000 us for 1500 B, + 100 us latency *)
  check (Alcotest.float 1e-6) "usb time" 1100. (Device.usb_time_us d);
  ignore (Flash.append (Device.flash d) (Bytes.make 100 'x'));
  check Alcotest.bool "flash time counted" true
    (Device.elapsed_us d > 1110.)

let test_device_scratch_counted () =
  let trace = Trace.create () in
  let d = Device.create ~trace () in
  let before = Device.elapsed_us d in
  ignore (Flash.append (Device.scratch d) (Bytes.make 100 'x'));
  check Alcotest.bool "scratch time counted" true (Device.elapsed_us d > before)

let test_usage_between () =
  let trace = Trace.create () in
  let d = Device.create ~trace () in
  let s0 = Device.snapshot d in
  Device.cpu d 100;
  ignore (Flash.append (Device.flash d) (Bytes.make 10 'y'));
  let u = Device.usage_between d ~before:s0 ~after:(Device.snapshot d) in
  check Alcotest.int "cpu ops" 100 u.Device.used_cpu_ops;
  check Alcotest.int "programs" 1 u.Device.flash_page_programs;
  check (Alcotest.float 1e-6) "total = parts" u.Device.total_us
    (u.Device.flash_us +. u.Device.used_usb_us +. u.Device.cpu_us)

let test_default_has_zero_faults () =
  let trace = Trace.create () in
  let d = Device.create ~trace () in
  Device.receive d Trace.Ack ~bytes:500;
  ignore (Flash.append (Device.flash d) (Bytes.make 64 'x'));
  check Alcotest.bool "no fault counters move" true
    (Device.no_faults (Device.snapshot d).Device.faults)

let lossy cfg =
  { cfg with
    Device.usb_fault =
      Some { Device.default_usb_fault with
             Device.usb_seed = 99; corrupt_prob = 0.5; max_retries = 16 } }

let test_usb_retry_metered_and_traced () =
  let sends = 20 in
  let run trace =
    let d = Device.create ~config:(lossy Device.default_config) ~trace () in
    for i = 1 to sends do
      Device.receive d (Trace.Id_list { table = "T"; count = i }) ~bytes:100
    done;
    d
  in
  let trace = Trace.create () in
  let d = run trace in
  (* the retry schedule rides the seeded corruption stream alone *)
  check (Alcotest.float 0.) "same seed, same retry clock"
    (Device.usb_time_us d) (Device.usb_time_us (run (Trace.create ())));
  let f = (Device.snapshot d).Device.faults in
  check Alcotest.bool "some transfers corrupted" true
    (Device.count f Device.Usb_corruptions > 0);
  check Alcotest.int "every corruption retried (all succeeded)"
    (Device.count f Device.Usb_corruptions) (Device.count f Device.Usb_retries);
  (* every attempt is charged and spy-visible *)
  check Alcotest.int "bytes counted per attempt"
    ((sends + Device.count f Device.Usb_retries) * 100)
    (Device.snapshot d).Device.usb_bytes_in;
  check Alcotest.int "retransmissions in the trace"
    (sends + Device.count f Device.Usb_retries) (List.length (Trace.events trace));
  (* backoff makes the lossy link slower than the clean one *)
  let clean = Device.create ~trace:(Trace.create ()) () in
  for i = 1 to sends do
    Device.receive clean (Trace.Id_list { table = "T"; count = i }) ~bytes:100
  done;
  check Alcotest.bool "backoff charged" true
    (Device.usb_time_us d > Device.usb_time_us clean)

let test_usb_retry_budget_bounded () =
  let trace = Trace.create () in
  let cfg =
    { Device.default_config with
      Device.usb_fault =
        Some { Device.default_usb_fault with
               Device.usb_seed = 1; corrupt_prob = 1.0; max_retries = 3 } }
  in
  let d = Device.create ~config:cfg ~trace () in
  (try
     Device.receive d Trace.Ack ~bytes:40;
     Alcotest.fail "expected Usb_error"
   with Device.Usb_error _ -> ());
  let f = (Device.snapshot d).Device.faults in
  check Alcotest.int "initial attempt + 3 retries all corrupted" 4
    (Device.count f Device.Usb_corruptions);
  check Alcotest.int "retry budget spent" 3 (Device.count f Device.Usb_retries);
  check Alcotest.int "all 4 attempts on the wire" (4 * 40)
    (Device.snapshot d).Device.usb_bytes_in

(* Every counter but the Flash ones moves only through [Device.note],
   which reports each call, [~by:0] included, to the attached registry
   under the counter's one name. The Flash counters are read off the
   regions: noting one is refused, and their names never reach the
   registry. *)
let test_noted_counters_report_once () =
  let d = Device.create ~trace:(Trace.create ()) () in
  let reg = Metrics.create () in
  Device.set_metrics d (Some reg);
  let flash, noted =
    List.partition
      (fun c -> String.starts_with ~prefix:"flash." (Device.counter_name c))
      Device.counters
  in
  check Alcotest.int "seven flash counters" 7 (List.length flash);
  let before = Device.snapshot d in
  (* a distinct amount per counter, the first one 0 *)
  List.iteri (fun i c -> Device.note d ~by:i c) noted;
  List.iter
    (fun c ->
       match Device.note d c with
       | () -> Alcotest.failf "%s noted" (Device.counter_name c)
       | exception Invalid_argument _ -> ())
    flash;
  let f = Device.fault_counters d in
  check Alcotest.bool "an earlier reading does not move" true
    (Device.no_faults before.Device.faults);
  check Alcotest.bool "the window holds every note" true
    ((Device.usage_between d ~before ~after:(Device.snapshot d)).Device.faults = f);
  List.iteri
    (fun i c ->
       let name = Device.counter_name c in
       check Alcotest.int (name ^ " counted") i (Device.count f c);
       check Alcotest.int (name ^ " reported") i (Metrics.counter reg name))
    noted;
  let names = List.map Device.counter_name Device.counters in
  check Alcotest.int "names distinct" (List.length names)
    (List.length (List.sort_uniq compare names));
  let reported =
    match Json.parse (Metrics.to_json reg) with
    | Ok json ->
      (match Json.member "counters" json with
       | Some (Json.Obj fields) -> List.map fst fields
       | _ -> Alcotest.fail "no counters object")
    | Error e -> Alcotest.fail e
  in
  check (Alcotest.list Alcotest.string) "registry holds the noted names only"
    (List.sort compare (List.map Device.counter_name noted))
    (List.sort compare reported)

let suite = [
  Alcotest.test_case "ram budget enforced" `Quick test_ram_budget_enforced;
  Alcotest.test_case "ram peak and scopes" `Quick test_ram_peak_and_scope;
  Alcotest.test_case "ram resize" `Quick test_ram_resize;
  Alcotest.test_case "with_alloc frees on exception" `Quick test_ram_with_alloc_on_exception;
  Alcotest.test_case "trace spy visibility" `Quick test_trace_spy_visibility;
  Alcotest.test_case "device clock" `Quick test_device_clock;
  Alcotest.test_case "scratch region counted" `Quick test_device_scratch_counted;
  Alcotest.test_case "usage between snapshots" `Quick test_usage_between;
  Alcotest.test_case "default config has zero fault counters" `Quick test_default_has_zero_faults;
  Alcotest.test_case "usb retries metered and traced" `Quick test_usb_retry_metered_and_traced;
  Alcotest.test_case "usb retry budget bounded" `Quick test_usb_retry_budget_bounded;
  Alcotest.test_case "every noted counter reports once" `Quick test_noted_counters_report_once;
]
