(* Wire-codec tests: compact round-trips (with label interning across
   frames), compact/verbose decode equivalence, frame fuzzing (every
   strict prefix and every single-bit flip must be rejected cleanly),
   dictionary hygiene on rejected frames, coalesced batching, the
   usb_fault retransmission path over whole frames, trace byte
   accounting against the device counters, the compact byte cut on the
   demo workload, spy/privacy invariance across encodings, cost-model
   calibration in both formats, and a compact-fleet smoke test. *)

module Value = Ghost_kernel.Value
module Sorted_ids = Ghost_kernel.Sorted_ids
module Wire = Ghost_wire.Wire
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Spy = Ghost_public.Spy
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Planner = Ghostdb.Planner
module Plan = Ghostdb.Plan
module Exec = Ghostdb.Exec
module Cost = Ghostdb.Cost
module Privacy = Ghostdb.Privacy
module Fleet = Ghost_fleet.Fleet

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let compact_config = { Device.default_config with Device.wire_format = Wire.Compact }

let config_of = function
  | Wire.Verbose -> Device.default_config
  | Wire.Compact -> compact_config

(* ---- message equality ---- *)

let message_equal a b =
  match (a, b) with
  | Wire.Query x, Wire.Query y -> x = y
  | Wire.Id_list { table = ta; ids = ia }, Wire.Id_list { table = tb; ids = ib } ->
    ta = tb && ia = ib
  | ( Wire.Value_stream { table = ta; column = ca; ty = tya; pairs = pa },
      Wire.Value_stream { table = tb; column = cb; ty = tyb; pairs = pb } ) ->
    ta = tb && ca = cb
    && Value.ty_equal tya tyb
    && Array.length pa = Array.length pb
    && List.for_all2
         (fun (i, u) (j, v) -> i = j && Value.equal u v)
         (Array.to_list pa) (Array.to_list pb)
  | _ -> false

let message_summary = function
  | Wire.Query s -> Printf.sprintf "Query %S" s
  | Wire.Id_list { table; ids } ->
    Printf.sprintf "Id_list %s %s" table (QCheck.Print.(array int) ids)
  | Wire.Value_stream { table; column; ty; pairs } ->
    Printf.sprintf "Value_stream %s.%s:%s [%s]" table column (Value.ty_name ty)
      (String.concat "; "
         (Array.to_list
            (Array.map (fun (i, v) -> Printf.sprintf "%d=%s" i (Value.to_string v)) pairs)))

(* ---- generators ---- *)

let gen_ids =
  QCheck.Gen.(map (fun l -> Sorted_ids.of_unsorted l) (list_size (0 -- 30) (0 -- 400)))

let gen_ty =
  QCheck.Gen.(
    frequency
      [
        (2, return Value.T_int);
        (1, return Value.T_float);
        (1, return Value.T_date);
        (2, map (fun n -> Value.T_char n) (1 -- 12));
      ])

let gen_value ty =
  QCheck.Gen.(
    match ty with
    | Value.T_int -> map (fun i -> Value.Int i) (int_range (-1000) 1000)
    | Value.T_float -> map (fun i -> Value.Float (Float.of_int i /. 16.)) (int_range (-1000) 1000)
    | Value.T_date -> map (fun d -> Value.Date d) (int_range 0 20000)
    | Value.T_char n ->
      map (fun s -> Value.Str s)
        (string_size (int_bound (n - 1)) ~gen:(map (fun i -> Char.chr (97 + i)) (int_bound 25))))

let gen_value_or_null ~allow_null ty =
  if allow_null then
    QCheck.Gen.(frequency [ (1, return Value.Null); (4, gen_value ty) ])
  else gen_value ty

let gen_pairs ~allow_null ty =
  QCheck.Gen.(
    gen_ids >>= fun ids ->
    map
      (fun vs -> Array.of_list (List.map2 (fun id v -> (id, v)) (Array.to_list ids) vs))
      (flatten_l (List.map (fun _ -> gen_value_or_null ~allow_null ty) (Array.to_list ids))))

let gen_table = QCheck.Gen.oneofl [ "Doctor"; "Patient"; "Visit"; "Prescription"; "Med" ]
let gen_column = QCheck.Gen.oneofl [ "Date"; "Name"; "Quantity"; "Speciality" ]

let gen_message ~allow_null =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun s -> Wire.Query s) (string_size (int_bound 60) ~gen:printable));
        (2, gen_table >>= fun table -> map (fun ids -> Wire.Id_list { table; ids }) gen_ids);
        ( 2,
          gen_table >>= fun table ->
          gen_column >>= fun column ->
          gen_ty >>= fun ty ->
          map
            (fun pairs -> Wire.Value_stream { table; column; ty; pairs })
            (gen_pairs ~allow_null ty) );
      ])

let arb_bursts =
  QCheck.make
    ~print:(fun bursts ->
      String.concat "\n---\n"
        (List.map (fun msgs -> String.concat "\n" (List.map message_summary msgs)) bursts))
    QCheck.Gen.(list_size (1 -- 5) (list_size (1 -- 4) (gen_message ~allow_null:true)))

let arb_message =
  QCheck.make ~print:message_summary (QCheck.Gen.map List.hd
    (QCheck.Gen.list_size (QCheck.Gen.return 1) (gen_message ~allow_null:false)))

(* ---- codec round trips ---- *)

let encode_burst e msgs =
  Wire.begin_frame e;
  List.iter (fun m -> ignore (Wire.add_message e m : int)) msgs;
  Wire.end_frame e

(* One encoder/decoder pair across a whole run of frames, so the label
   dictionaries advance in lockstep and back-references from later
   frames resolve against commitments from earlier ones. *)
let prop_compact_roundtrip =
  QCheck.Test.make ~name:"compact frames round-trip (interning across frames)" ~count:200
    arb_bursts (fun bursts ->
      let e = Wire.encoder () and d = Wire.decoder () in
      List.for_all
        (fun msgs ->
           let total = encode_burst e msgs in
           let f = Wire.frame e in
           Bytes.length f = total
           && (match Wire.decode_frame d f ~pos:0 ~len:total with
               | Ok got ->
                 List.length got = List.length msgs && List.for_all2 message_equal msgs got
               | Error _ -> false))
        bursts)

(* For every message, decoding its compact frame and decoding its
   verbose image must yield the same message — the two framings carry
   identical information. (Verbose zero-fills nulls, so null-free
   streams are the domain where verbose decode is exact.) *)
let prop_verbose_equivalence =
  QCheck.Test.make ~name:"compact decode = verbose decode" ~count:300 arb_message
    (fun m ->
       let e = Wire.encoder () and d = Wire.decoder () in
       let total = encode_burst e [ m ] in
       let cf = Wire.frame e in
       let compact =
         match Wire.decode_frame d cf ~pos:0 ~len:total with
         | Ok [ x ] -> x
         | Ok _ -> QCheck.Test.fail_report "compact frame decoded to wrong arity"
         | Error e -> QCheck.Test.fail_reportf "compact frame rejected: %s" e
       in
       let n = Wire.encode_verbose e m in
       let vb = Wire.frame e in
       let expected_verbose_size =
         match m with
         | Wire.Query text -> String.length text
         | Wire.Id_list { ids; _ } -> 4 * Array.length ids
         | Wire.Value_stream { ty; pairs; _ } -> (4 + Value.ty_width ty) * Array.length pairs
       in
       if n <> expected_verbose_size then
         QCheck.Test.fail_reportf "verbose size %d, seed charged %d" n expected_verbose_size;
       let verbose =
         match m with
         | Wire.Query _ -> Wire.Query (Wire.decode_verbose_query vb ~pos:0 ~len:n)
         | Wire.Id_list { table; _ } ->
           (match Wire.decode_verbose_ids vb ~pos:0 ~len:n with
            | Ok ids -> Wire.Id_list { table; ids }
            | Error e -> QCheck.Test.fail_reportf "verbose ids rejected: %s" e)
         | Wire.Value_stream { table; column; ty; _ } ->
           (match Wire.decode_verbose_values ~ty vb ~pos:0 ~len:n with
            | Ok pairs -> Wire.Value_stream { table; column; ty; pairs }
            | Error e -> QCheck.Test.fail_reportf "verbose values rejected: %s" e)
       in
       message_equal compact verbose && message_equal compact m)

(* ---- fuzzing: rejection must be clean, never a crash ---- *)

let fuzz_messages =
  [
    Wire.Query "SELECT Name FROM Doctor WHERE Speciality = 'Cardiology'";
    Wire.Id_list { table = "Visit"; ids = Array.init 40 (fun i -> (7 * i) + (i mod 3)) };
    Wire.Value_stream
      {
        table = "Prescription";
        column = "Quantity";
        ty = Value.T_int;
        pairs = Array.init 25 (fun i -> ((5 * i) + 1, if i mod 6 = 0 then Value.Null else Value.Int (i * i)));
      };
  ]

let test_fuzz_rejection () =
  let e = Wire.encoder () in
  let total = encode_burst e fuzz_messages in
  let f = Wire.frame e in
  let d = Wire.decoder () in
  let expect_error what k =
    match k () with
    | Ok _ -> Alcotest.failf "%s: accepted a damaged frame" what
    | Error _ -> ()
    | exception e -> Alcotest.failf "%s: decoder raised %s" what (Printexc.to_string e)
  in
  (* every strict prefix is a truncation *)
  for len = 0 to total - 1 do
    expect_error
      (Printf.sprintf "prefix %d" len)
      (fun () -> Wire.decode_frame d f ~pos:0 ~len)
  done;
  (* out-of-bounds length and position *)
  expect_error "len past buffer" (fun () -> Wire.decode_frame d f ~pos:0 ~len:(total + 1));
  expect_error "negative pos" (fun () -> Wire.decode_frame d f ~pos:(-1) ~len:total);
  (* every single-bit flip: CRC-32 detects them all, including flips in
     the CRC trailer itself *)
  for byte = 0 to total - 1 do
    for bit = 0 to 7 do
      let g = Bytes.copy f in
      Bytes.set_uint8 g byte (Bytes.get_uint8 g byte lxor (1 lsl bit));
      expect_error
        (Printf.sprintf "bit flip %d.%d" byte bit)
        (fun () -> Wire.decode_frame d g ~pos:0 ~len:total)
    done
  done;
  (* after all those rejections the decoder is pristine: the original
     frame (whose labels are inline definitions) still decodes *)
  match Wire.decode_frame d f ~pos:0 ~len:total with
  | Ok got ->
    check Alcotest.bool "pristine frame decodes after fuzzing" true
      (List.for_all2 message_equal fuzz_messages got)
  | Error e -> Alcotest.failf "pristine frame rejected after fuzzing: %s" e

(* A rejected frame must not commit its label definitions: the decoder
   dictionary advances only on accepted frames, mirroring the sender's
   advance only on acknowledged (eventually delivered) frames. *)
let test_rejected_frame_commits_nothing () =
  let e = Wire.encoder () in
  let ids = [| 2; 3; 5; 8 |] in
  let t1 = encode_burst e [ Wire.Id_list { table = "Visit"; ids } ] in
  let f1 = Wire.frame e in
  let t2 = encode_burst e [ Wire.Id_list { table = "Visit"; ids } ] in
  let f2 = Wire.frame e in
  check Alcotest.bool "second frame back-references the label" true (t2 < t1);
  let d = Wire.decoder () in
  let corrupt = Bytes.copy f1 in
  Bytes.set_uint8 corrupt (t1 / 2) (Bytes.get_uint8 corrupt (t1 / 2) lxor 0x10);
  (match Wire.decode_frame d corrupt ~pos:0 ~len:t1 with
   | Ok _ -> Alcotest.fail "corrupt frame accepted"
   | Error _ -> ());
  (* the back-reference in frame 2 must now dangle... *)
  (match Wire.decode_frame d f2 ~pos:0 ~len:t2 with
   | Ok _ -> Alcotest.fail "back-reference resolved against an uncommitted definition"
   | Error _ -> ());
  (* ...until the retransmitted frame 1 is accepted *)
  (match Wire.decode_frame d f1 ~pos:0 ~len:t1 with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "clean frame rejected: %s" e);
  match Wire.decode_frame d f2 ~pos:0 ~len:t2 with
  | Ok [ Wire.Id_list { table; ids = got } ] ->
    check Alcotest.string "table" "Visit" table;
    check Alcotest.bool "ids" true (got = ids)
  | Ok _ | Error _ -> Alcotest.fail "frame 2 did not decode after commit"

(* A compact frame around hand-built message bytes: magic, body, CRC-32. *)
let raw_frame body =
  let body = "\xC7" ^ body in
  let n = String.length body in
  let f = Bytes.create (n + 4) in
  Bytes.blit_string body 0 f 0 n;
  Ghost_kernel.Codec.put_u32 f n
    (Ghost_kernel.Codec.crc32 (Bytes.of_string body) ~pos:0 ~len:n);
  f

(* A 9-byte varint reaches the sign bit of OCaml's 63-bit int: an id
   that wraps negative must be rejected, never returned as data. *)
let test_id_overflow () =
  let expect what body =
    let f = raw_frame body in
    match Wire.decode_frame (Wire.decoder ()) f ~pos:0 ~len:(Bytes.length f) with
    | Error e -> check Alcotest.string what "id overflow" e
    | Ok _ -> Alcotest.failf "%s: overflowing id accepted" what
  in
  (* Id_list, inline label "t", 2 ids: 5, then a delta of 2^62 (negative) *)
  expect "id list" ("\x02\x00\x01t\x02\x05" ^ String.make 8 '\x80' ^ "\x40");
  (* Value_stream "t"."c" INTEGER, 2 NULL pairs: id 5, then an id delta
     of max_int (tagged varint of all-ones) *)
  expect "value stream" ("\x03\x00\x01t\x00\x01c\x00\x02\x0B" ^ String.make 8 '\xFF' ^ "\x7F")

(* ---- device integration ---- *)

let trace_sums trace =
  List.fold_left
    (fun (inb, outb) (e : Trace.event) ->
       match e.Trace.link with
       | Trace.Pc_to_device -> (inb + e.Trace.bytes, outb)
       | Trace.Device_to_pc | Trace.Device_to_display -> (inb, outb + e.Trace.bytes)
       | Trace.Pc_to_server | Trace.Server_to_pc -> (inb, outb))
    (0, 0) (Trace.events trace)

(* Coalescing: a burst under [with_usb_batch] pays one frame envelope
   and one per-transfer latency; the per-event byte attribution still
   sums to the device counters. *)
let test_batch_coalesces () =
  let mk () =
    let trace = Trace.create () in
    (Device.create ~config:compact_config ~trace (), trace)
  in
  let ids = Array.init 20 (fun i -> 3 * i) in
  let send3 d =
    Device.receive_id_list d ~table:"Visit" ids;
    Device.receive_id_list d ~table:"Visit" ids;
    Device.receive_id_list d ~table:"Visit" ids
  in
  let batched, bt = mk () in
  Device.with_usb_batch batched (fun () -> send3 batched);
  let unbatched, ut = mk () in
  send3 unbatched;
  let sb = Device.snapshot batched and su = Device.snapshot unbatched in
  (* same messages, two envelopes saved *)
  check Alcotest.int "coalescing saves two envelopes"
    (su.Device.usb_bytes_in - (2 * Wire.envelope_bytes))
    sb.Device.usb_bytes_in;
  check Alcotest.bool "one per-transfer latency instead of three" true
    (sb.Device.usb_us < su.Device.usb_us);
  (* one trace event per message either way, and byte attribution sums
     to the device counters *)
  check Alcotest.int "batched events" 3 (List.length (Trace.events bt));
  check Alcotest.int "unbatched events" 3 (List.length (Trace.events ut));
  check Alcotest.int "batched trace sum" sb.Device.usb_bytes_in (fst (trace_sums bt));
  check Alcotest.int "unbatched trace sum" su.Device.usb_bytes_in (fst (trace_sums ut))

let tiny_rows = lazy (Medical.generate Medical.tiny)

let make_db fmt =
  Ghost_db.of_schema ~device_config:(config_of fmt) (Medical.schema ()) (Lazy.force tiny_rows)

let reference_rows db sql =
  let schema = Ghost_db.schema db in
  let refdb = Reference.db_of_rows schema (Lazy.force tiny_rows) in
  Reference.run schema refdb (Ghost_db.bind db sql)

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

(* Satellite: per-event trace bytes are the actual encoded sizes, so
   their per-link sums must equal the device byte counters — in both
   formats, across loading and every canonical plan. *)
let test_trace_totals_match_counters () =
  List.iter
    (fun fmt ->
       let db = make_db fmt in
       let cat = Ghost_db.catalog db in
       let q = Ghost_db.bind db (Queries.demo_with ~date_selectivity:0.3 ()) in
       List.iter
         (fun plan -> ignore (Ghost_db.run_plan db plan : Exec.result))
         [ Planner.all_pre cat q; Planner.all_post cat q; Planner.cross cat q ];
       let s = Device.snapshot (Ghost_db.device db) in
       let inb, outb = trace_sums (Ghost_db.trace db) in
       let name tag = Printf.sprintf "%s (%s)" tag (Wire.format_name fmt) in
       check Alcotest.int (name "trace in = usb_bytes_in") s.Device.usb_bytes_in inb;
       check Alcotest.int (name "trace out = usb_bytes_out") s.Device.usb_bytes_out outb)
    [ Wire.Verbose; Wire.Compact ]

let run_measured db plan =
  let before = Device.snapshot (Ghost_db.device db) in
  let r = Ghost_db.run_plan db plan in
  let after = Device.snapshot (Ghost_db.device db) in
  let bytes =
    after.Device.usb_bytes_in - before.Device.usb_bytes_in
    + (after.Device.usb_bytes_out - before.Device.usb_bytes_out)
  in
  (r, bytes)

(* Bytes of the data-bearing messages (id lists and value streams)
   entering the device. The query text rides the same link but is the
   paper's irreducible leak — identical characters in both formats —
   so at unit-test scale it dominates totals; the 2x claim on totals
   is E20's, measured at bench scale where data dwarfs the query. *)
let data_bytes trace =
  List.fold_left
    (fun acc (e : Trace.event) ->
       match (e.Trace.link, e.Trace.payload) with
       | Trace.Pc_to_device, (Trace.Id_list _ | Trace.Value_stream _) ->
         acc + e.Trace.bytes
       | _ -> acc)
    0 (Trace.events trace)

(* The tentpole claim at unit scale: on the demo workload's Pre-filter
   plan at 12 Mbit/s, Compact moves at least 2x fewer data bytes (and
   strictly fewer bytes overall) and finishes faster — for the same
   rows, the same spy-visible findings and a passing privacy audit in
   both encodings. *)
let test_compact_byte_cut_and_invariance () =
  let vdb = make_db Wire.Verbose and cdb = make_db Wire.Compact in
  let sql = Queries.demo_with ~date_selectivity:0.3 () in
  let expected = reference_rows vdb sql in
  Ghost_db.clear_trace vdb;
  Ghost_db.clear_trace cdb;
  let vr, vbytes = run_measured vdb (Planner.all_pre (Ghost_db.catalog vdb) (Ghost_db.bind vdb sql)) in
  let cr, cbytes = run_measured cdb (Planner.all_pre (Ghost_db.catalog cdb) (Ghost_db.bind cdb sql)) in
  check Alcotest.bool "verbose rows correct" true (rows_equal vr.Exec.rows expected);
  check Alcotest.bool "compact rows correct" true (rows_equal cr.Exec.rows expected);
  let vdata = data_bytes (Ghost_db.trace vdb) and cdata = data_bytes (Ghost_db.trace cdb) in
  if cdata * 2 > vdata then
    Alcotest.failf "compact moved %d data bytes, verbose %d: less than the promised 2x cut"
      cdata vdata;
  check Alcotest.bool "fewer bytes overall" true (cbytes < vbytes);
  check Alcotest.bool "compact is faster at 12 Mbit/s" true
    (cr.Exec.elapsed_us < vr.Exec.elapsed_us);
  (* the spy learns exactly the same things from either encoding *)
  let vspy = Spy.analyze (Ghost_db.trace vdb) and cspy = Spy.analyze (Ghost_db.trace cdb) in
  check Alcotest.(list string) "same queries observed" vspy.Spy.queries_observed
    cspy.Spy.queries_observed;
  check Alcotest.bool "same id lists observed" true
    (vspy.Spy.id_lists_observed = cspy.Spy.id_lists_observed);
  check Alcotest.bool "same value streams observed" true
    (vspy.Spy.value_streams_observed = cspy.Spy.value_streams_observed);
  check Alcotest.int "no outbound payload either way" 0
    (vspy.Spy.device_outbound_payload_bytes + cspy.Spy.device_outbound_payload_bytes);
  let vaudit = Privacy.audit (Ghost_db.trace vdb) and caudit = Privacy.audit (Ghost_db.trace cdb) in
  check Alcotest.bool "verbose audit passes" true vaudit.Privacy.ok;
  check Alcotest.bool "compact audit passes" true caudit.Privacy.ok;
  check Alcotest.bool "same query leak" true
    (vaudit.Privacy.queries_leaked = caudit.Privacy.queries_leaked)

(* Satellite: the cost model's per-encoding byte predictions stay
   within the calibration drift threshold (relative error <= 1.0, the
   metrics layer's default) of the measured transfer in both formats. *)
let test_cost_calibrated_both_formats () =
  List.iter
    (fun fmt ->
       let db = make_db fmt in
       let cat = Ghost_db.catalog db in
       let q = Ghost_db.bind db (Queries.demo_with ~date_selectivity:0.3 ()) in
       List.iter
         (fun plan ->
            let est = Cost.estimate cat plan in
            let _, measured = run_measured db plan in
            let rel =
              Float.abs (Float.of_int (est.Cost.est_usb_bytes - measured))
              /. Float.max (Float.of_int measured) 1.0
            in
            if rel > 1.0 then
              Alcotest.failf "%s/%s: est %d bytes vs measured %d (rel %.2f > 1.0)"
                (Wire.format_name fmt) plan.Plan.label est.Cost.est_usb_bytes measured rel)
         [ Planner.all_pre cat q; Planner.all_post cat q; Planner.cross cat q ])
    [ Wire.Verbose; Wire.Compact ]

(* usb_fault now corrupts and retransmits whole compact frames: under
   heavy injected corruption the decoder-facing bytes are eventually
   delivered intact and the answer is unchanged. *)
let test_compact_survives_usb_corruption () =
  let faulty =
    {
      compact_config with
      Device.usb_fault =
        Some
          {
            Device.default_usb_fault with
            Device.usb_seed = 7;
            corrupt_prob = 0.25;
            max_retries = 12;
          };
    }
  in
  let db =
    Ghost_db.of_schema ~device_config:faulty (Medical.schema ()) (Lazy.force tiny_rows)
  in
  let sql = Queries.demo_with ~date_selectivity:0.3 () in
  let expected = reference_rows db sql in
  let r = Ghost_db.query db sql in
  check Alcotest.bool "rows correct through frame retransmissions" true
    (rows_equal r.Exec.rows expected);
  let f = Device.fault_counters (Ghost_db.device db) in
  check Alcotest.bool "corruption actually struck" true (f.Device.usb_corruptions > 0);
  check Alcotest.bool "frames were retransmitted" true (f.Device.usb_retries > 0);
  (* retransmitted attempts stay visible: trace sums still match *)
  let s = Device.snapshot (Ghost_db.device db) in
  let inb, outb = trace_sums (Ghost_db.trace db) in
  check Alcotest.int "trace in under faults" s.Device.usb_bytes_in inb;
  check Alcotest.int "trace out under faults" s.Device.usb_bytes_out outb

(* The fleet propagates the device config, so a compact fleet needs no
   new plumbing: same rows, passing fleet-wide audit. *)
let test_fleet_compact () =
  let fleet =
    Fleet.create ~device_config:compact_config
      ~topology:{ Fleet.shards = 2; replicas = 1; partitioning = Fleet.Range }
      (Medical.schema ()) (Lazy.force tiny_rows)
  in
  let sql = Queries.demo_with ~date_selectivity:0.3 () in
  let schema = Medical.schema () in
  let refdb = Reference.db_of_rows schema (Lazy.force tiny_rows) in
  let expected = Reference.run schema refdb (Ghost_sql.Bind.bind schema sql) in
  let r = Fleet.query fleet sql in
  check Alcotest.bool "fleet complete" true r.Fleet.complete;
  check Alcotest.bool "fleet rows correct" true (rows_equal r.Fleet.rows expected);
  check Alcotest.bool "fleet audit passes" true (Fleet.audit fleet).Privacy.ok

let suite =
  [
    qtest prop_compact_roundtrip;
    qtest prop_verbose_equivalence;
    Alcotest.test_case "fuzz: truncation and bit flips rejected" `Quick test_fuzz_rejection;
    Alcotest.test_case "rejected frames commit no labels" `Quick
      test_rejected_frame_commits_nothing;
    Alcotest.test_case "overflowing ids rejected" `Quick test_id_overflow;
    Alcotest.test_case "batching coalesces frames" `Quick test_batch_coalesces;
    Alcotest.test_case "trace totals = device counters" `Quick
      test_trace_totals_match_counters;
    Alcotest.test_case "compact cuts bytes 2x, same spy view" `Quick
      test_compact_byte_cut_and_invariance;
    Alcotest.test_case "cost model calibrated in both formats" `Quick
      test_cost_calibrated_both_formats;
    Alcotest.test_case "compact survives usb corruption" `Quick
      test_compact_survives_usb_corruption;
    Alcotest.test_case "fleet runs compact" `Quick test_fleet_compact;
  ]
