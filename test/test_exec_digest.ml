(* Executor oracle. Every workload query (plus an aggregate and an
   ORDER BY .. LIMIT shape) runs under Off, Pad and Full, on two device
   configurations, before and after a round of inserts and deletes. Each
   run is reduced to a ledger line: the sorted rows, the operators in
   order with their tuple counts, RAM peak and full device usage, the
   device clock (printed with %h, so bit-exact), padding bytes, Bloom
   false positives and the spy fingerprint. The lines are pinned in
   [exec_digest.expected]: a refactor of the executor must not move a
   single charge. On a mismatch the test names the first query and
   operator that differ and writes the whole ledger to
   [exec_digest.actual] in the test's build directory; copy that file
   over the expected one only when a change is meant to move charges. *)

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
        durable_logs = true;
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

(* The runs of one query in one mode: Off and Pad run every candidate
   plan of the optimizer's panel in that mode (Pre, Post, cross and
   index strategies all appear there); Full runs the planner's
   fixed-shape plan, like [Ghost_db.query ~oblivious:true], and the
   best plan forced to Full. *)
let runs db mode sql =
  let panel = Ghost_db.plans db sql in
  match mode with
  | Oblivious.Full ->
    [
      ("planner", fun () -> Ghost_db.query db ~oblivious:true sql);
      ("forced", fun () -> Ghost_db.run_plan db ~oblivious:true (fst (List.hd panel)));
    ]
  | Oblivious.Off | Oblivious.Pad ->
    List.mapi
      (fun i (plan, _) ->
         (Printf.sprintf "p%d" i, fun () -> Ghost_db.run_plan db (Plan.with_mode plan mode)))
      panel

let ledger_line db ~key run =
  Ghost_db.clear_trace db;
  let r = run () in
  let ops =
    List.mapi
      (fun i (o : Exec.op_stats) ->
         Printf.sprintf "op%d:%s=%s" i o.Exec.op_label
           (short (o.Exec.tuples_in, o.Exec.tuples_out, o.Exec.ram_peak, o.Exec.usage)))
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
let mutate db =
  let rng = Rng.create 11 in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  Ghost_db.insert db
    (List.init 20 (fun i ->
       [|
         Value.Int (next + i);
         Value.Int (Rng.int_in rng 1 10);
         Value.Int (Rng.int_in rng 1 4);
         Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
         Value.Int (1 + Rng.int rng Medical.tiny.Medical.medicines);
         Value.Int (1 + Rng.int rng Medical.tiny.Medical.visits);
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
            mutate db;
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

let test_digest () =
  let actual = ledger () in
  match first_diff (read_lines "exec_digest.expected", actual) with
  | None -> ()
  | Some (e, a) ->
    Out_channel.with_open_text "exec_digest.actual" (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) actual);
    let tokens = String.split_on_char ' ' in
    let e_tok, a_tok = Option.get (first_diff (tokens e, tokens a)) in
    Alcotest.failf "executor ledger moved at %s: expected %s, got %s (full ledger in %s)"
      (List.hd (tokens (if a = "-" then e else a)))
      e_tok a_tok
      (Filename.concat (Sys.getcwd ()) "exec_digest.actual")

let suite = [ Alcotest.test_case "ledger pinned per config and mode" `Quick test_digest ]
