(* Wire-codec tests: compact round-trips (labels interned within a
   frame, so a frame's bytes do not depend on earlier frames),
   compact/verbose decode equivalence, frame fuzzing (every strict
   prefix and every single-bit flip must be rejected cleanly), frames
   decoding alone in any order, coalesced batching, the
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

(* One encoder across a whole run of frames, each frame decoded on its
   own: labels are interned within a frame, so every frame round-trips
   and its bytes equal those of the same burst encoded first on a fresh
   encoder, whatever was encoded before it. *)
let prop_compact_roundtrip =
  QCheck.Test.make ~name:"compact frames round-trip per frame" ~count:200
    arb_bursts (fun bursts ->
      let e = Wire.encoder () in
      List.for_all
        (fun msgs ->
           let total = encode_burst e msgs in
           let f = Wire.frame e in
           let fresh = Wire.encoder () in
           ignore (encode_burst fresh msgs : int);
           Bytes.length f = total
           && Bytes.equal f (Wire.frame fresh)
           && (match Wire.decode_frame f ~pos:0 ~len:total with
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
       let e = Wire.encoder () in
       let total = encode_burst e [ m ] in
       let cf = Wire.frame e in
       let compact =
         match Wire.decode_frame cf ~pos:0 ~len:total with
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
      (fun () -> Wire.decode_frame f ~pos:0 ~len)
  done;
  (* out-of-bounds length and position *)
  expect_error "len past buffer" (fun () -> Wire.decode_frame f ~pos:0 ~len:(total + 1));
  expect_error "negative pos" (fun () -> Wire.decode_frame f ~pos:(-1) ~len:total);
  (* every single-bit flip: CRC-32 detects them all, including flips in
     the CRC trailer itself *)
  for byte = 0 to total - 1 do
    for bit = 0 to 7 do
      let g = Bytes.copy f in
      Bytes.set_uint8 g byte (Bytes.get_uint8 g byte lxor (1 lsl bit));
      expect_error
        (Printf.sprintf "bit flip %d.%d" byte bit)
        (fun () -> Wire.decode_frame g ~pos:0 ~len:total)
    done
  done;
  (* the intact frame still decodes after all those rejections *)
  match Wire.decode_frame f ~pos:0 ~len:total with
  | Ok got ->
    check Alcotest.bool "pristine frame decodes after fuzzing" true
      (List.for_all2 message_equal fuzz_messages got)
  | Error e -> Alcotest.failf "pristine frame rejected after fuzzing: %s" e

(* A compact frame around hand-built message bytes: magic, body, CRC-32. *)
let raw_frame body =
  let body = "\xC7" ^ body in
  let n = String.length body in
  let f = Bytes.create (n + 4) in
  Bytes.blit_string body 0 f 0 n;
  Ghost_kernel.Codec.put_u32 f n
    (Ghost_kernel.Codec.crc32 (Bytes.of_string body) ~pos:0 ~len:n);
  f

(* Labels live for one frame: two frames carrying the same message
   from one encoder are byte-identical, each defines its labels inline,
   and each decodes on its own, in any order, whatever was rejected
   before it. *)
let test_frames_decode_alone () =
  let e = Wire.encoder () in
  let ids = [| 2; 3; 5; 8 |] in
  let t1 = encode_burst e [ Wire.Id_list { table = "Visit"; ids } ] in
  let f1 = Wire.frame e in
  let t2 = encode_burst e [ Wire.Id_list { table = "Visit"; ids } ] in
  let f2 = Wire.frame e in
  check Alcotest.bool "the second frame repeats the first" true
    (t1 = t2 && Bytes.equal f1 f2);
  let corrupt = Bytes.copy f1 in
  Bytes.set_uint8 corrupt (t1 / 2) (Bytes.get_uint8 corrupt (t1 / 2) lxor 0x10);
  (match Wire.decode_frame corrupt ~pos:0 ~len:t1 with
   | Ok _ -> Alcotest.fail "corrupt frame accepted"
   | Error _ -> ());
  let decodes what f len =
    match Wire.decode_frame f ~pos:0 ~len with
    | Ok [ Wire.Id_list { table; ids = got } ] ->
      check Alcotest.string (what ^ ": table") "Visit" table;
      check Alcotest.bool (what ^ ": ids") true (got = ids)
    | Ok _ -> Alcotest.failf "%s: wrong messages" what
    | Error err -> Alcotest.failf "%s rejected: %s" what err
  in
  decodes "frame 2 after a rejected frame 1" f2 t2;
  decodes "frame 1 after frame 2" f1 t1;
  (* a back-reference past the frame's own definitions is rejected *)
  let dangling = raw_frame "\x02\x00\x01\x00" in
  match Wire.decode_frame dangling ~pos:0 ~len:(Bytes.length dangling) with
  | Error err -> check Alcotest.string "dangling label" "label reference 0 out of range" err
  | Ok _ -> Alcotest.fail "a reference to a label of another frame was accepted"

(* A 9-byte varint reaches the sign bit of OCaml's 63-bit int: an id
   that wraps negative must be rejected, never returned as data. *)
let test_id_overflow () =
  let expect what body =
    let f = raw_frame body in
    match Wire.decode_frame f ~pos:0 ~len:(Bytes.length f) with
    | Error e -> check Alcotest.string what "id overflow" e
    | Ok _ -> Alcotest.failf "%s: overflowing id accepted" what
  in
  (* Id_list, inline label "t", 2 ids: 5, then a delta of 2^62 (negative) *)
  expect "id list" ("\x02\x03t\x02\x05" ^ String.make 8 '\x80' ^ "\x40");
  (* Value_stream "t"."c" INTEGER, 2 NULL pairs: id 5, then an id delta
     of max_int (tagged varint of all-ones) *)
  expect "value stream" ("\x03\x03t\x03c\x00\x02\x0B" ^ String.make 8 '\xFF' ^ "\x7F")

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
  (* same messages: the batch saves two envelopes, and its 2nd and 3rd
     messages name "Visit" by a one-byte back-reference where each
     unbatched frame defines it inline (length varint, 5 bytes) *)
  let label_saving = String.length "Visit" in
  check Alcotest.int "coalescing saves two envelopes and two label definitions"
    (su.Device.usb_bytes_in - (2 * (Wire.envelope_bytes + label_saving)))
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
  check Alcotest.bool "corruption actually struck" true
    (Device.count f Device.Usb_corruptions > 0);
  check Alcotest.bool "frames were retransmitted" true (Device.count f Device.Usb_retries > 0);
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
      ~topology:{ Fleet.shards = 2; replicas = 1 }
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

(* ---- result rows (the display link) ---- *)

let gen_row_value ty =
  QCheck.Gen.(
    frequency
      [
        (1, return Value.Null);
        ( 6,
          match ty with
          | Value.T_int -> map (fun i -> Value.Int i) (oneof [ int; int_range (-300) 300 ])
          | Value.T_date -> map (fun d -> Value.Date d) (oneof [ int; int_range 0 20000 ])
          | Value.T_float ->
            map (fun f -> Value.Float f) (oneof [ float; map Float.of_int small_signed_int ])
          | Value.T_char n ->
            (* '\000' inside, at the end, and padding past the width:
               CHAR comparison ignores trailing padding *)
            map2
              (fun s pad -> Value.Str (s ^ String.make pad '\000'))
              (string_size (int_bound n)
                 ~gen:(frequency [ (8, char_range 'a' 'z'); (1, return '\000') ]))
              (int_bound 3) );
      ])

let gen_rows =
  QCheck.Gen.(
    list_size (1 -- 5) gen_ty >>= fun tys ->
    let tys = Array.of_list tys in
    map
      (fun rows -> (tys, rows))
      (list_size (0 -- 12)
         (map Array.of_list (flatten_l (List.map gen_row_value (Array.to_list tys))))))

let print_rows (tys, rows) =
  Printf.sprintf "[%s] %s"
    (String.concat "; " (Array.to_list (Array.map Value.ty_name tys)))
    (String.concat " | "
       (List.map
          (fun r -> String.concat ", " (Array.to_list (Array.map Value.to_string r)))
          rows))

let rows_roundtrip_equal a b =
  List.length a = List.length b && List.for_all2 (Array.for_all2 Value.equal) a b

(* Every value type, NULLs, full-range (so negative and descending)
   ints and dates, NaNs, and CHARs padded with '\000' decode back to
   equal values. *)
let prop_rows_roundtrip =
  QCheck.Test.make ~name:"result rows round-trip" ~count:500
    (QCheck.make ~print:print_rows gen_rows)
    (fun (tys, rows) ->
       let e = Wire.encoder () in
       let n = Wire.encode_rows e ~tys rows in
       let b = Wire.frame e in
       Bytes.length b = n
       &&
       match Wire.decode_rows ~tys b ~pos:0 ~len:n with
       | Ok got -> rows_roundtrip_equal rows got
       | Error _ -> false)

(* No count header: an empty result costs nothing, on the encoder and on
   the display link. *)
let test_empty_rows () =
  let e = Wire.encoder () in
  check Alcotest.int "no rows, no bytes" 0
    (Wire.encode_rows e ~tys:[| Value.T_int; Value.T_char 8 |] []);
  check Alcotest.bool "0 bytes decode to no rows" true
    (Wire.decode_rows ~tys:[| Value.T_int |] Bytes.empty ~pos:0 ~len:0 = Ok []);
  let db = make_db Wire.Verbose in
  Ghost_db.clear_trace db;
  let r = Ghost_db.query db "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity > 1000" in
  check Alcotest.int "empty result" 0 r.Exec.row_count;
  List.iter
    (fun (ev : Trace.event) ->
       match ev.Trace.payload with
       | Trace.Result_tuples _ -> check Alcotest.int "emitted bytes" 0 ev.Trace.bytes
       | _ -> ())
    (Trace.events (Ghost_db.trace db))

(* Aggregates over INT and CHAR columns, each with a COUNT: the first is
   the exec digest's. *)
let aggregate_shapes =
  [
    "SELECT COUNT(*), MIN(Pre.Quantity), MAX(Pre.Quantity) FROM Prescription Pre";
    "SELECT COUNT(*), MIN(Vis.Purpose), MAX(Vis.Purpose) FROM Visit Vis";
    "SELECT Med.Type, COUNT(*), MIN(Med.Name), MAX(Med.Effect) FROM Medicine Med GROUP BY \
     Med.Type";
  ]

(* The query shapes of the suite, one projecting every column of each
   table and the aggregates above, as (output types, which outputs stay
   below 2^27, fixed row width). A key or a COUNT never exceeds a
   table's cardinality. *)
let row_shapes =
  lazy
    (let db = make_db Wire.Verbose in
     let schema = Ghost_db.schema db in
     let every_column (t : Ghost_relation.Schema.table) =
       Printf.sprintf "SELECT %s FROM %s"
         (String.concat ", "
            (t.Ghost_relation.Schema.key
             :: List.map
                  (fun (c : Ghost_relation.Column.t) -> c.Ghost_relation.Column.name)
                  t.Ghost_relation.Schema.columns))
         t.Ghost_relation.Schema.name
     in
     List.map
       (fun sql ->
          let plan = fst (List.hd (Ghost_db.plans db sql)) in
          let q = plan.Plan.query in
          let bounded =
            match q.Ghost_sql.Bind.aggregate with
            | None ->
              List.map
                (fun (t, c) ->
                   c = (Ghost_relation.Schema.find_table schema t).Ghost_relation.Schema.key)
                q.Ghost_sql.Bind.projections
            | Some spec ->
              let aggs = Array.of_list spec.Ghost_sql.Aggregate.aggs in
              List.map
                (function
                  | `Agg a -> aggs.(a).Ghost_sql.Aggregate.a_fn = Ghost_sql.Aggregate.Count
                  | `Group _ -> false)
                spec.Ghost_sql.Aggregate.output
          in
          ( Ghost_sql.Bind.output_types schema q,
            Array.of_list bounded,
            Plan.emit_row_width schema plan ))
       (List.map snd Queries.all
        @ List.map every_column (Ghost_relation.Schema.tables schema)
        @ aggregate_shapes))

(* An aggregate row takes each output's Flash width: 8 bytes for an
   INT, a FLOAT or a DATE, n for a CHAR(n). *)
let test_aggregate_row_widths () =
  let db = make_db Wire.Verbose in
  let width sql = Plan.emit_row_width (Ghost_db.schema db) (fst (List.hd (Ghost_db.plans db sql))) in
  List.iter
    (fun (sql, want) -> check Alcotest.int sql want (width sql))
    [
      (List.hd aggregate_shapes, 24);
      ("SELECT MIN(Vis.Purpose) FROM Visit Vis", 20);
      ("SELECT Med.Type, MAX(Med.Name) FROM Medicine Med GROUP BY Med.Type", 36);
      ("SELECT COUNT(*), AVG(Pre.Quantity), MAX(Pre.WhenWritten) FROM Prescription Pre", 24);
    ]

(* Pad and Full keep the fixed width, so Off never pays more per row.
   A projected row: keys below 2^27 take at most 4 varint bytes, the
   width charges 4 per column plus the Flash width of every non-key
   one, and any other value (NULL included) fits in that. An aggregate
   row has no framing, only each output's Flash width: its COUNT takes
   at most 4 of its 8 bytes, and the other 4 cover the length byte of
   each CHAR(n) beside it and the ninth varint byte of each full-range
   INT. (Alone, a MIN over a full CHAR(n) takes n + 1 bytes under Off.) *)
let prop_rows_within_fixed_width =
  QCheck.Test.make ~name:"no row encodes longer than Plan.emit_row_width" ~count:200
    QCheck.(make Gen.(pair (int_bound 1000) (list_size (1 -- 8) (int_bound 1000))))
    (fun (pick, seeds) ->
       let shapes = Lazy.force row_shapes in
       let tys, bounded, width = List.nth shapes (pick mod List.length shapes) in
       let rows =
         List.map
           (fun seed ->
              let st = Random.State.make [| seed |] in
              Array.mapi
                (fun i ty ->
                   if bounded.(i) then Value.Int (Random.State.int st (1 lsl 27))
                   else gen_row_value ty st)
                tys)
           seeds
       in
       let e = Wire.encoder () in
       let rec within prev = function
         | [] -> true
         | k :: rest ->
           let n = Wire.encode_rows e ~tys (List.filteri (fun i _ -> i < k) rows) in
           n - prev <= width && within n rest
       in
       within 0 (List.init (List.length rows) (fun i -> i + 1)))

(* The Off emission carries the encoded rows and is annotated with the
   number of byte lengths the rows could take: up to [bound] rows of
   the widest encodable row, [bound] being the live root count capped
   by the LIMIT. *)
let test_off_emission_annotation () =
  let db = make_db Wire.Verbose in
  let schema = Ghost_db.schema db in
  let live = Ghostdb.Catalog.live_count (Ghost_db.catalog db) "Prescription" in
  List.iter
    (fun (sql, bound) ->
       Ghost_db.clear_trace db;
       let r = Ghost_db.query db sql in
       let tys = Ghost_sql.Bind.output_types schema (Ghost_db.bind db sql) in
       let expected_bytes = Wire.encode_rows (Wire.encoder ()) ~tys r.Exec.rows in
       match
         List.filter_map
           (fun (ev : Trace.event) ->
              match ev.Trace.payload with
              | Trace.Result_tuples { count } -> Some (count, ev.Trace.bytes, ev.Trace.obl)
              | _ -> None)
           (Trace.events (Ghost_db.trace db))
       with
       | [ (count, bytes, Some obl) ] ->
         check Alcotest.int (sql ^ ": count") r.Exec.row_count count;
         check Alcotest.int (sql ^ ": encoded bytes") expected_bytes bytes;
         check Alcotest.int (sql ^ ": bound") bound obl.Trace.obl_bound;
         check Alcotest.int (sql ^ ": byte lengths")
           ((bound * Wire.max_row_bytes tys) + 1)
           obl.Trace.obl_values;
         check Alcotest.int (sql ^ ": no padding") 0 obl.Trace.obl_pad_bytes
       | l -> Alcotest.failf "%s: expected one annotated emission, got %d" sql (List.length l))
    [
      ("SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity >= 3", live);
      ("SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity >= 3 LIMIT 5", 5);
    ]

let suite =
  [
    qtest prop_compact_roundtrip;
    qtest prop_verbose_equivalence;
    Alcotest.test_case "fuzz: truncation and bit flips rejected" `Quick test_fuzz_rejection;
    Alcotest.test_case "frames decode alone, in any order" `Quick
      test_frames_decode_alone;
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
    qtest prop_rows_roundtrip;
    Alcotest.test_case "empty result encodes to 0 bytes" `Quick test_empty_rows;
    qtest prop_rows_within_fixed_width;
    Alcotest.test_case "aggregate rows take their outputs' widths" `Quick
      test_aggregate_row_widths;
    Alcotest.test_case "Off emission annotated with its byte lengths" `Quick
      test_off_emission_annotation;
  ]
