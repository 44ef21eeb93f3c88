(* Executor oracle. Every workload query (plus an aggregate and an
   ORDER BY .. LIMIT shape) runs under Off, Pad and Full, on two device
   configurations, before and after a round of inserts and deletes. Each
   run is reduced to a ledger line: the sorted rows, the operators in
   order with their tuple counts, RAM peak and device usage, the
   device clock (printed with %h, so bit-exact), padding bytes, Bloom
   false positives and the spy fingerprint. A panel plan's line is
   keyed by the plan's label, and the panel runs in key order, so an
   estimate that reorders the panel moves no line. The lines are pinned in
   [exec_digest.expected]: a refactor of the executor must not move a
   single charge. On a mismatch the test names the first query and
   operator that differ and writes the whole ledger to
   [exec_digest.actual] in the test's build directory (CI uploads it as
   an artifact when the suite fails); copy that file over the expected
   one only when a change is meant to move charges. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Wire = Ghost_wire.Wire
module Oblivious = Ghost_oblivious.Oblivious
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost

let short v = String.sub (Digest.to_hex (Digest.string (Marshal.to_string v []))) 0 8

let configs =
  [
    ("default", Device.default_config);
    ( "combined",
      {
        Device.default_config with
        Device.page_cache_frames = 64;
        wire_format = Wire.Compact;
        verify_pages = true;
        flash_geometry = { Flash.page_size = 256; pages_per_block = 8 };
        log_runs = Some { Device.l0_spill_pages = 2; run_fanout = 2 };
      } );
  ]

let queries =
  Queries.all
  @ [
    ("aggregate", "SELECT COUNT(*), MIN(Pre.Quantity), MAX(Pre.Quantity) FROM Prescription Pre");
    ( "order-limit",
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity >= 3 ORDER BY \
       Pre.PreID DESC LIMIT 5" );
  ]

let modes = [ ("Off", Oblivious.Off); ("Pad", Oblivious.Pad); ("Full", Oblivious.Full) ]

(* A panel plan's ledger key: its label with the spaces taken out, so
   the key stays one token. The panel is sorted by estimate, so keying
   by rank would move every line behind a plan whose estimate changed
   although no charge did. *)
let plan_key (p : Plan.t) = String.map (function ' ' -> '_' | c -> c) p.Plan.label

(* The panel's plans keyed by label, in key order; the labels must tell
   them apart. *)
let keyed_panel db sql =
  let panel =
    List.sort (fun (a, _) (b, _) -> String.compare a b)
      (List.map (fun (p, _) -> (plan_key p, p)) (Ghost_db.plans db sql))
  in
  let keys = List.map fst panel in
  if List.length (List.sort_uniq String.compare keys) <> List.length keys then
    Alcotest.failf "two panel plans of %S share a label" sql;
  panel

(* The runs of one query in one mode: Off and Pad run every candidate
   plan of the optimizer's panel in that mode (Pre, Post, cross and
   index strategies all appear there); Full runs the planner's
   fixed-shape plan, like [Ghost_db.query ~oblivious:true], and the
   best plan forced to Full. The panel runs go in key order, not panel
   order: each run leaves the device clock (whose float differences
   round with its absolute value) and the page cache to the next one,
   so running in estimate order would move lines whenever an estimate
   reordered the panel. *)
let runs db mode sql =
  match mode with
  | Oblivious.Full ->
    let best = fst (List.hd (Ghost_db.plans db sql)) in
    [
      ("planner", fun () -> Ghost_db.query db ~oblivious:true sql);
      ("forced", fun () -> Ghost_db.run_plan db (Plan.with_mode best mode));
    ]
  | Oblivious.Off | Oblivious.Pad ->
    List.map
      (fun (key, plan) -> (key, fun () -> Ghost_db.run_plan db (Plan.with_mode plan mode)))
      (keyed_panel db sql)

(* The nonzero fault and maintenance counters, by registry name, so the
   ledger does not depend on how the device stores them. *)
let nonzero_counters f =
  List.filter_map
    (fun c ->
       match Device.count f c with 0 -> None | n -> Some (Device.counter_name c, n))
    Device.counters

(* An operator's device usage: the scalar fields, the cache stats and
   the nonzero counters. *)
let usage_key (u : Device.usage) =
  ( ( u.Device.flash_page_reads,
      u.Device.flash_page_programs,
      u.Device.flash_us,
      u.Device.used_usb_bytes_in,
      u.Device.used_usb_us,
      u.Device.used_cpu_ops,
      u.Device.cpu_us,
      u.Device.total_us ),
    u.Device.cache,
    nonzero_counters u.Device.faults )

let ledger_line db ~key run =
  Ghost_db.clear_trace db;
  let r = run () in
  let ops =
    List.mapi
      (fun i (o : Exec.op_stats) ->
         Printf.sprintf "op%d:%s=%s" i o.Exec.op_label
           (short (o.Exec.tuples_in, o.Exec.tuples_out, o.Exec.ram_peak, usage_key o.Exec.usage)))
      r.Exec.ops
  in
  (* operators first, so a moved charge is reported at its operator *)
  String.concat " "
    ((key :: ops)
     @ [
       "rows=" ^ short (Reference.sort_rows r.Exec.rows);
       Printf.sprintf "clock=%h" r.Exec.elapsed_us;
       Printf.sprintf "pad=%d" r.Exec.padding_bytes;
       Printf.sprintf "fp=%d" r.Exec.bloom_fp_candidates;
       "spy=" ^ short (Oblivious.fingerprint (Ghost_db.trace db));
     ])

(* The same mutation round as the oblivious suite: 20 fresh
   prescriptions, then 4 deletes (three loaded rows, one fresh one). *)
let mutate (scale : Medical.scale) db =
  let rng = Rng.create 11 in
  let next = scale.Medical.prescriptions + 1 in
  Ghost_db.insert db
    (List.init 20 (fun i ->
       [|
         Value.Int (next + i);
         Value.Int (Rng.int_in rng 1 10);
         Value.Int (Rng.int_in rng 1 4);
         Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
         Value.Int (1 + Rng.int rng scale.Medical.medicines);
         Value.Int (1 + Rng.int rng scale.Medical.visits);
       |]));
  Ghost_db.delete db [ 1; 7; 42; next + 3 ];
  Ghost_db.compact db

let ledger () =
  let rows = Medical.generate Medical.tiny in
  List.concat_map
    (fun (cname, device_config) ->
       List.concat_map
         (fun (mname, mode) ->
            let db = Ghost_db.of_schema ~device_config (Medical.schema ()) rows in
            let phase tag =
              List.concat_map
                (fun (qname, sql) ->
                   List.map
                     (fun (rname, run) ->
                        ledger_line db run
                          ~key:(String.concat "/" [ cname; mname; tag; qname; rname ]))
                     (runs db mode sql))
                queries
            in
            let before = phase "load" in
            mutate Medical.tiny db;
            before @ phase "mutated")
         modes)
    configs

let read_lines path =
  if not (Sys.file_exists path) then []
  else In_channel.with_open_text path In_channel.input_all
       |> String.split_on_char '\n'
       |> List.filter (fun l -> l <> "")

(* The first position where two lists differ, "-" standing in for a
   missing element. *)
let rec first_diff = function
  | e :: es, a :: as_ -> if e = a then first_diff (es, as_) else Some (e, a)
  | e :: _, [] -> Some (e, "-")
  | [], a :: _ -> Some ("-", a)
  | [], [] -> None

(* Compares [actual] with the lines pinned in [expected]. On a mismatch
   it writes [actual] next to the expected file's name with an
   ".actual" extension and names the first line and token that
   differ. *)
let check_pinned ~what ~expected actual =
  match first_diff (read_lines expected, actual) with
  | None -> ()
  | Some (e, a) ->
    let actual_file = Filename.remove_extension expected ^ ".actual" in
    Out_channel.with_open_text actual_file (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let tokens = String.split_on_char ' ' in
    let e_tok, a_tok = Option.get (first_diff (tokens e, tokens a)) in
    Alcotest.failf "%s ledger moved at %s: expected %s, got %s (full ledger in %s)" what
      (List.hd (tokens (if a = "-" then e else a)))
      e_tok a_tok
      (Filename.concat (Sys.getcwd ()) actual_file)

let test_digest () = check_pinned ~what:"executor" ~expected:"exec_digest.expected" (ledger ())

(* Cost oracle. Every panel plan of every query is estimated under Off,
   Pad and forced Full, plus the planner's fixed-shape plan, before and
   after the mutation round, on three catalogs: the two configurations
   above at tiny scale, and the small scale on the default device,
   where Full's full-column streams outgrow half the RAM budget. Each
   estimate is reduced to a line: the total (printed with %h, so
   bit-exact), candidates, results, RAM and USB bytes, then every
   breakdown term with its %h value. The lines are pinned in
   [cost_digest.expected]: a refactor of the cost model must not move
   a single estimate. Estimating runs no plan, so the case is cheap. *)
let catalogs =
  List.map (fun (name, config) -> (name, Medical.tiny, config)) configs
  @ [ ("small", Medical.small, Device.default_config) ]

let estimate_line ~key (e : Cost.estimate) =
  String.concat " "
    (key
     :: Printf.sprintf "est=%h" e.Cost.est_time_us
     :: Printf.sprintf "cand=%d" e.Cost.est_candidates
     :: Printf.sprintf "res=%d" e.Cost.est_results
     :: Printf.sprintf "ram=%d" e.Cost.est_ram_bytes
     :: Printf.sprintf "usb=%d" e.Cost.est_usb_bytes
     :: List.map (fun (label, us) -> Printf.sprintf "%s=%h" label us) e.Cost.breakdown)

let cost_ledger () =
  List.concat_map
    (fun (cname, scale, device_config) ->
       let db =
         Ghost_db.of_schema ~device_config (Medical.schema ()) (Medical.generate scale)
       in
       let cat = Ghost_db.catalog db in
       let phase tag =
         List.concat_map
           (fun (qname, sql) ->
              let key mname rname = String.concat "/" [ cname; mname; tag; qname; rname ] in
              let panel = keyed_panel db sql in
              List.concat_map
                (fun (mname, mode) ->
                   List.map
                     (fun (rname, plan) ->
                        estimate_line ~key:(key mname rname)
                          (Cost.estimate cat (Plan.with_mode plan mode)))
                     panel)
                modes
              @ [
                estimate_line ~key:(key "Full" "planner")
                  (Cost.estimate cat (Planner.oblivious cat (Ghost_db.bind db sql)));
              ])
           queries
       in
       let before = phase "load" in
       mutate scale db;
       before @ phase "mutated")
    catalogs

let test_cost_digest () =
  check_pinned ~what:"cost" ~expected:"cost_digest.expected" (cost_ledger ())

let suite =
  [
    Alcotest.test_case "ledger pinned per config and mode" `Quick test_digest;
    Alcotest.test_case "estimates pinned per catalog and mode" `Quick test_cost_digest;
  ]
