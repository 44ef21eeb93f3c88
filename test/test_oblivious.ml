(* Oblivious execution mode: padding math, the leakage quantifier, and
   the tentpole guarantee — two queries differing only in a hidden
   constant produce byte-identical spy traces (and identical clock and
   page-touch counts) under [~oblivious:true], while the baseline
   executor audits to a strictly positive leakage. *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Oblivious = Ghost_oblivious.Oblivious
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan
module Privacy = Ghostdb.Privacy

let check = Alcotest.check
let feq = Alcotest.float 1e-9

(* ---- padding math ---------------------------------------------- *)

let test_pad_math () =
  List.iter
    (fun (n, want) -> check Alcotest.int (Printf.sprintf "next_pow2 %d" n) want
        (Oblivious.next_pow2 n))
    [ (0, 1); (1, 1); (2, 2); (3, 4); (4, 4); (5, 8); (1000, 1024) ];
  List.iter
    (fun (bound, n, want) ->
       check Alcotest.int (Printf.sprintf "pad_count ~bound:%d %d" bound n)
         want (Oblivious.pad_count ~bound n))
    [ (100, 0, 1); (100, 1, 1); (100, 5, 8); (100, 64, 64); (100, 70, 100);
      (100, 100, 100); (64, 64, 64); (1, 0, 1); (1, 1, 1); (0, 0, 0) ];
  Alcotest.check_raises "pad_count: n > bound rejected"
    (Invalid_argument "Oblivious.pad_count: count 7 exceeds public bound 5")
    (fun () -> ignore (Oblivious.pad_count ~bound:5 7));
  (* pow2 buckets <= 100 are 1,2,4,8,16,32,64 plus the cap itself *)
  List.iter
    (fun (bound, want) ->
       check Alcotest.int (Printf.sprintf "bucket_values ~bound:%d" bound)
         want (Oblivious.bucket_values ~bound))
    [ (100, 8); (64, 7); (2, 2); (1, 1); (0, 1) ];
  check feq "bits: fully padded observable" 0. (Oblivious.bits_of_values 1);
  check feq "bits: two outcomes" 1. (Oblivious.bits_of_values 2);
  check feq "bits of bucket_values 100" (log (float_of_int 8) /. log 2.)
    (Oblivious.bits_of_values (Oblivious.bucket_values ~bound:100))

(* ---- entropy estimator vs hand-computed distributions ----------- *)

let test_entropy () =
  check feq "uniform over 4" 2.0 (Oblivious.Entropy.of_weights [ 1.; 1.; 1.; 1. ]);
  check feq "single outcome" 0.0 (Oblivious.Entropy.of_weights [ 1. ]);
  check feq "empty" 0.0 (Oblivious.Entropy.of_weights []);
  (* H(3/4, 1/4) = 2 - 0.75 * log2 3 *)
  check feq "3:1 split"
    (2.0 -. (0.75 *. (log 3. /. log 2.)))
    (Oblivious.Entropy.of_weights [ 3.; 1. ]);
  check feq "zero weights dropped" 1.0
    (Oblivious.Entropy.of_weights [ 2.; 0.; 2. ]);
  check feq "observations a,b,a,b" 1.0
    (Oblivious.Entropy.of_observations [ "a"; "b"; "a"; "b" ]);
  check feq "equal observations" 0.0
    (Oblivious.Entropy.of_observations [ "a"; "a"; "a" ])

(* ---- auditing the two executors on the medical workload --------- *)

let fresh ?device_config () =
  let rows = Medical.generate Medical.tiny in
  let db = Ghost_db.of_schema ?device_config (Medical.schema ()) rows in
  let refdb = Reference.db_of_rows (Ghost_db.schema db) rows in
  (db, refdb)

let rows_equal got expected = Reference.sort_rows got = Reference.sort_rows expected

let reference_rows db refdb sql =
  Reference.run (Ghost_db.schema db) refdb (Ghost_db.bind db sql)

(* The baseline trace must audit to the modeled leak of its result
   cardinality — log2(live + 1) bits for an unlimited single-table
   query — and carry no padding. *)
let test_baseline_leaks_bits () =
  let db, _ = fresh () in
  Ghost_db.clear_trace db;
  let r =
    Ghost_db.query db
      "SELECT Doc.Name FROM Doctor Doc WHERE Doc.Country = 'France'"
  in
  check Alcotest.bool "mode echoed" true (r.Exec.oblivious = Oblivious.Off);
  check Alcotest.int "no padding in baseline" 0 r.Exec.padding_bytes;
  let live = Catalog.live_count (Ghost_db.catalog db) "Doctor" in
  let v = Ghost_db.audit db in
  (* the compact rows' length ranges over 0 .. live widest rows *)
  let widest = Ghost_wire.Wire.max_row_bytes [| Value.T_char 20 |] in
  check feq "emission leaks log2(live x widest row + 1) bits"
    (Oblivious.bits_of_values ((live * widest) + 1))
    v.Privacy.data_dependent_bits;
  check Alcotest.int "no padding audited" 0 v.Privacy.padding_bytes;
  (* the demo join leaks too *)
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  let v = Ghost_db.audit db in
  check Alcotest.bool "baseline demo leaks > 0 bits" true
    (v.Privacy.data_dependent_bits > 0.);
  (* without a fixed-shape access profile, the page-walk side channel
     adds log2(page_bound + 1) more bits *)
  let access = Ghost_db.access_profile db ~fixed_shape:false in
  check Alcotest.bool "page bound is positive" true (access.Privacy.page_bound > 0);
  let v' = Ghost_db.audit ~access db in
  check feq "access profile adds the page-walk bits"
    (v.Privacy.data_dependent_bits
     +. Oblivious.bits_of_values (access.Privacy.page_bound + 1))
    v'.Privacy.data_dependent_bits

let test_oblivious_audits_to_zero () =
  let db, refdb = fresh () in
  let expected = reference_rows db refdb Queries.demo in
  Ghost_db.clear_trace db;
  let r = Ghost_db.query db ~oblivious:true Queries.demo in
  check Alcotest.bool "mode echoed" true (r.Exec.oblivious = Oblivious.Full);
  check Alcotest.bool "real rows out" true (rows_equal r.Exec.rows expected);
  check Alcotest.bool "dummies cost bytes" true (r.Exec.padding_bytes > 0);
  check Alcotest.int "ram released" 0 (Ram.in_use (Device.ram (Ghost_db.device db)));
  let v = Ghost_db.audit ~access:(Ghost_db.access_profile db ~fixed_shape:true) db in
  check Alcotest.bool "guarantee still holds" true v.Privacy.ok;
  check feq "0 data-dependent bits" 0. v.Privacy.data_dependent_bits;
  check Alcotest.int "audit accounts every dummy byte" r.Exec.padding_bytes
    v.Privacy.padding_bytes;
  (* the spy sees only the USB share of the padding (the display
     channel's dummies are not spy-visible) *)
  let spy = Ghost_db.spy_report db in
  check Alcotest.bool "spy-visible padding bounded" true
    (spy.Ghost_public.Spy.padding_bytes > 0
     && spy.Ghost_public.Spy.padding_bytes <= r.Exec.padding_bytes);
  check Alcotest.int "nothing leaves the device" 0
    spy.Ghost_public.Spy.device_outbound_payload_bytes

(* Pad-only mode: baseline access pattern, power-of-two framing — the
   leak shrinks to the bucket count but does not vanish. *)
let test_pad_mode_shrinks_leak () =
  let db, refdb = fresh () in
  let expected = reference_rows db refdb Queries.demo in
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  let base_bits = (Ghost_db.audit db).Privacy.data_dependent_bits in
  let plan, _ = List.hd (Ghost_db.plans db Queries.demo) in
  Ghost_db.clear_trace db;
  let r = Ghost_db.run_plan db (Plan.with_mode plan Oblivious.Pad) in
  check Alcotest.bool "pad mode echoed" true (r.Exec.oblivious = Oblivious.Pad);
  check Alcotest.bool "rows unchanged" true (rows_equal r.Exec.rows expected);
  check Alcotest.bool "padding shipped" true (r.Exec.padding_bytes > 0);
  let pad_bits = (Ghost_db.audit db).Privacy.data_dependent_bits in
  check Alcotest.bool
    (Printf.sprintf "0 < pad bits (%.2f) < baseline bits (%.2f)" pad_bits base_bits)
    true
    (pad_bits > 0. && pad_bits < base_bits)

(* ---- the tentpole: trace equality across hidden constants ------- *)

(* Two demo queries identical except for the hidden Purpose constant
   (same byte length, very different Zipf frequency). Each runs on a
   fresh instance so page-cache warmth cannot tell them apart. *)
let oblivious_probe sql =
  let db, refdb = fresh () in
  let expected = reference_rows db refdb sql in
  Ghost_db.clear_trace db;
  let r = Ghost_db.query db ~oblivious:true sql in
  check Alcotest.bool "probe rows = reference" true (rows_equal r.Exec.rows expected);
  (Oblivious.fingerprint (Ghost_db.trace db), r)

let check_indistinguishable name (fp1, r1) (fp2, r2) =
  check Alcotest.string (name ^ ": byte-identical spy fingerprints") fp1 fp2;
  check Alcotest.int (name ^ ": flash page touches")
    r1.Exec.total.Device.flash_page_reads r2.Exec.total.Device.flash_page_reads;
  check Alcotest.int (name ^ ": usb bytes")
    r1.Exec.total.Device.used_usb_bytes_in r2.Exec.total.Device.used_usb_bytes_in;
  check Alcotest.int (name ^ ": cpu ops")
    r1.Exec.total.Device.used_cpu_ops r2.Exec.total.Device.used_cpu_ops;
  check (Alcotest.float 0.) (name ^ ": device clock") r1.Exec.elapsed_us
    r2.Exec.elapsed_us

let test_trace_equality_hidden_constant () =
  let p1 = oblivious_probe (Queries.demo_with ~purpose:"Sclerosis" ()) in
  let p2 = oblivious_probe (Queries.demo_with ~purpose:"Influenza" ()) in
  check_indistinguishable "purpose constant" p1 p2

(* Same guarantee for a hidden range predicate: the two bounds select
   very different fractions of Prescription.Quantity. *)
let test_trace_equality_hidden_range () =
  let q lo hi =
    Printf.sprintf
      "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity \
       BETWEEN %d AND %d"
      lo hi
  in
  let p1 = oblivious_probe (q 1 9) in
  let p2 = oblivious_probe (q 8 9) in
  check_indistinguishable "range bounds" p1 p2

(* ---- hidden foreign keys do not move the clock ------------------ *)

(* Tiny Medical as generated, and with Prescription.VisID sorted: the
   same multiset of hidden foreign keys, the same visible columns and
   cardinalities. Every workload query under [Full] must show the spy
   the same trace, and the device the same clock, page reads and CPU
   on both, with the reference rows on each. *)
let test_hidden_fks_keep_the_clock () =
  let schema = Medical.schema () in
  let rows = Medical.generate Medical.tiny in
  let col =
    Ghost_relation.Schema.column_index
      (Ghost_relation.Schema.find_table schema "Prescription")
      "VisID"
  in
  let sorted =
    List.map
      (fun (t, rs) ->
         if t <> "Prescription" then (t, rs)
         else
           let keys = List.sort compare (List.map (fun r -> r.(col)) rs) in
           ( t,
             List.map2
               (fun r k ->
                  let r = Array.copy r in
                  r.(col) <- k;
                  r)
               rs keys ))
      rows
  in
  check Alcotest.bool "sorting moves some key" true (sorted <> rows);
  let probe rows sql =
    let db = Ghost_db.of_schema schema rows in
    let expected = reference_rows db (Reference.db_of_rows schema rows) sql in
    Ghost_db.clear_trace db;
    let r = Ghost_db.query db ~oblivious:true sql in
    check Alcotest.bool "rows = reference" true (rows_equal r.Exec.rows expected);
    (Oblivious.fingerprint (Ghost_db.trace db), r)
  in
  List.iter
    (fun (name, sql) ->
       check_indistinguishable (name ^ ", shuffled vs sorted VisID") (probe rows sql)
         (probe sorted sql))
    Queries.all

(* SKT widths are public. Two data sets share every cardinality and
   every visible column but not their hidden foreign keys: in one every
   Prescription.VisID is at most 8, in the other they spread over all
   of Visit. Each level's width comes from its table's cardinality, not
   from the largest id stored, so both SKTs take the same row width and
   pages, and a Full BoundScan reads as many pages on the same clock. *)
let test_skt_widths_public () =
  let schema = Medical.schema () in
  let rows = Medical.generate Medical.tiny in
  let col =
    Ghost_relation.Schema.column_index
      (Ghost_relation.Schema.find_table schema "Prescription")
      "VisID"
  in
  let n_visits = List.length (List.assoc "Visit" rows) in
  let with_visids f =
    List.map
      (fun (t, rs) ->
         if t <> "Prescription" then (t, rs)
         else
           ( t,
             List.mapi
               (fun k r ->
                  let r = Array.copy r in
                  r.(col) <- Value.Int (f k);
                  r)
               rs ))
      rows
  in
  let narrow = with_visids (fun k -> 1 + (k mod 8))
  and wide = with_visids (fun k -> n_visits - (k * 7 mod n_visits)) in
  let probe rows =
    let db = Ghost_db.of_schema schema rows in
    let skt = Option.get (Catalog.skt (Ghost_db.catalog db) "Prescription") in
    let r = Ghost_db.query db ~oblivious:true Queries.demo in
    let op = List.find (fun o -> o.Exec.op_label = "BoundScan") r.Exec.ops in
    ( Ghost_store.Skt.row_width skt,
      List.length (Ghost_store.Skt.pages skt),
      op.Exec.usage.Device.flash_page_reads,
      op.Exec.usage.Device.total_us )
  in
  let width, pages, reads, clock = probe narrow in
  let width', pages', reads', clock' = probe wide in
  check Alcotest.int "SKT row width" width width';
  check Alcotest.int "SKT pages" pages pages';
  check Alcotest.int "Full BoundScan page reads" reads reads';
  check (Alcotest.float 0.) "Full BoundScan clock" clock clock'

(* ---- correctness: every workload query, also after mutations ---- *)

let test_rows_match_reference () =
  let db, refdb = fresh () in
  List.iter
    (fun (name, sql) ->
       let expected = reference_rows db refdb sql in
       let r = Ghost_db.query db ~oblivious:true sql in
       if not (rows_equal r.Exec.rows expected) then
         Alcotest.failf "%s oblivious: got %d rows, want %d" name r.Exec.row_count
           (List.length expected);
       check Alcotest.int (name ^ ": ram released") 0
         (Ram.in_use (Device.ram (Ghost_db.device db))))
    Queries.all;
  (* aggregates and ORDER BY .. LIMIT shapes *)
  List.iter
    (fun sql ->
       let expected = reference_rows db refdb sql in
       let r = Ghost_db.query db ~oblivious:true sql in
       if not (rows_equal r.Exec.rows expected) then
         Alcotest.failf "%s oblivious: got %d rows, want %d" sql r.Exec.row_count
           (List.length expected))
    [
      "SELECT COUNT(*), MIN(Pre.Quantity), MAX(Pre.Quantity) FROM Prescription Pre";
      "SELECT Pre.PreID FROM Prescription Pre WHERE Pre.Quantity >= 3 ORDER BY \
       Pre.PreID DESC LIMIT 5";
    ]

(* Delta-log and tombstone coverage: the fixed-shape scan must see
   fresh inserts and stop seeing deleted roots, like the baseline. With
   [leveled], the device keeps its delta log in leveled runs (small
   pages, so the inserts spill) and compaction runs between the inserts
   and the deletes and after them, so the whole-log scan crosses sorted
   runs and folded tombstones. *)
let rows_after_mutations ~leveled () =
  let device_config =
    if not leveled then None
    else
      Some
        {
          Device.default_config with
          Device.flash_geometry = { Ghost_flash.Flash.page_size = 256; pages_per_block = 8 };
          log_runs = Some { Device.l0_spill_pages = 2; run_fanout = 2 };
        }
  in
  let db, _ = fresh ?device_config () in
  let rng = Rng.create 11 in
  let next = Medical.tiny.Medical.prescriptions + 1 in
  let batch = Medical.new_prescriptions Medical.tiny rng ~first:next 20 in
  Ghost_db.insert db batch;
  if leveled then Ghost_db.compact db;
  Ghost_db.delete db [ 1; 7; 42; next + 3 ];
  if leveled then begin
    Ghost_db.compact db;
    let log = Option.get (Catalog.delta (Ghost_db.catalog db) "Prescription") in
    check Alcotest.bool "inserts spilled into sorted runs" true
      (Ghostdb.Delta_log.run_count log > 0)
  end;
  List.iter
    (fun (name, sql) ->
       let expected = (Ghost_db.query db sql).Exec.rows in
       let r = Ghost_db.query db ~oblivious:true sql in
       if not (rows_equal r.Exec.rows expected) then
         Alcotest.failf "%s oblivious after mutations: got %d rows, want %d" name
           r.Exec.row_count (List.length expected))
    Queries.all;
  Ghost_db.clear_trace db;
  let r = Ghost_db.query db ~oblivious:true Queries.demo in
  let v = Ghost_db.audit ~access:(Ghost_db.access_profile db ~fixed_shape:true) db in
  check feq "0 bits with delta and tombstones" 0. v.Privacy.data_dependent_bits;
  (* the Purpose predicate sits below the root: the delta scan tests
     the bitmap BoundScan filled and reads nothing but the log *)
  let log = Option.get (Catalog.delta (Ghost_db.catalog db) "Prescription") in
  let scan = List.find (fun o -> o.Exec.op_label = "DeltaScan") r.Exec.ops in
  check Alcotest.bool "DeltaScan met records" true (scan.Exec.tuples_in > 0);
  if
    scan.Exec.usage.Device.flash_page_reads
    > Ghostdb.Delta_log.l0_pages log + Ghostdb.Delta_log.run_pages log
  then Alcotest.fail "DeltaScan read more than the log's pages"

(* ---- property: random tree schemas ------------------------------ *)

(* Build one conjunctive query over the whole schema tree whose only
   non-join predicate is an equality on a hidden column, with the
   constant's surface form held at a fixed byte length; two different
   constants must then be indistinguishable: byte-identical spy
   fingerprints, identical page touches and device clock, and each
   probe's rows must equal the reference evaluator's. Cases without a
   hidden non-fk column pass vacuously. *)
let constant_pairs = function
  | Value.T_int -> ("3", "7")
  | Value.T_float -> ("1.5", "3.5")
  | Value.T_char _ -> ("'blue'", "'pink'")
  | Value.T_date ->
    ( Printf.sprintf "'%s'" (Ghost_kernel.Date.to_string 12005),
      Printf.sprintf "'%s'" (Ghost_kernel.Date.to_string 12025) )

let run_random_case seed =
  let open Test_random_schema in
  let rng = Rng.create seed in
  let tables = random_tables rng in
  let schema = schema_of_tables tables in
  let rows = random_rows rng tables in
  let hidden =
    Array.to_list tables
    |> List.concat_map (fun gt ->
      List.filter_map
        (fun gc ->
           if gc.gc_hidden && gc.gc_refs = None then Some (gt.gt_name, gc)
           else None)
        gt.gt_cols)
  in
  match hidden with
  | [] -> true (* vacuous: nothing hidden to vary *)
  | _ ->
    let t_name, gc = List.nth hidden (Rng.int rng (List.length hidden)) in
    let from = Array.to_list tables |> List.map (fun gt -> gt.gt_name) in
    let joins =
      List.filter_map
        (fun gt ->
           List.filter_map
             (fun c ->
                match c.gc_refs with
                | Some child ->
                  Some
                    (Printf.sprintf "%s.%s = %s.%s" gt.gt_name c.gc_name child
                       (Array.to_list tables
                        |> List.find (fun t -> t.gt_name = child))
                         .gt_key)
                | None -> None)
             gt.gt_cols
           |> function [] -> None | l -> Some l)
        (Array.to_list tables)
      |> List.concat
    in
    let projections =
      List.map (fun gt -> Printf.sprintf "%s.%s" gt.gt_name gt.gt_key)
        (Array.to_list tables)
      @ [ Printf.sprintf "%s.%s" t_name gc.gc_name ]
    in
    let lit1, lit2 = constant_pairs gc.gc_ty in
    let sql_with lit =
      Printf.sprintf "SELECT %s FROM %s WHERE %s"
        (String.concat ", " projections)
        (String.concat ", " from)
        (String.concat " AND "
           (joins @ [ Printf.sprintf "%s.%s = %s" t_name gc.gc_name lit ]))
    in
    let probe lit =
      let sql = sql_with lit in
      let db = Ghost_db.of_schema schema rows in
      let refdb = Reference.db_of_rows schema rows in
      let expected = Reference.run schema refdb (Ghost_db.bind db sql) in
      Ghost_db.clear_trace db;
      let r = Ghost_db.query db ~oblivious:true sql in
      let v =
        Ghost_db.audit ~access:(Ghost_db.access_profile db ~fixed_shape:true) db
      in
      ( Oblivious.fingerprint (Ghost_db.trace db),
        r,
        v,
        rows_equal r.Exec.rows expected )
    in
    let fp1, r1, v1, ok1 = probe lit1 in
    let fp2, r2, v2, ok2 = probe lit2 in
    let ok = ref true in
    if not (ok1 && ok2) then begin
      Printf.printf "OBLIVIOUS ROWS MISMATCH seed=%d on %s\n" seed (sql_with lit1);
      ok := false
    end;
    if fp1 <> fp2 then begin
      Printf.printf "FINGERPRINT MISMATCH seed=%d on %s vs %s\n" seed lit1 lit2;
      ok := false
    end;
    if
      r1.Exec.total.Device.flash_page_reads <> r2.Exec.total.Device.flash_page_reads
      || r1.Exec.elapsed_us <> r2.Exec.elapsed_us
      || r1.Exec.total.Device.used_cpu_ops <> r2.Exec.total.Device.used_cpu_ops
    then begin
      Printf.printf "SHAPE MISMATCH seed=%d (pages %d/%d, clock %.1f/%.1f)\n" seed
        r1.Exec.total.Device.flash_page_reads r2.Exec.total.Device.flash_page_reads
        r1.Exec.elapsed_us r2.Exec.elapsed_us;
      ok := false
    end;
    if v1.Privacy.data_dependent_bits <> 0. || v2.Privacy.data_dependent_bits <> 0.
    then begin
      Printf.printf "NONZERO LEAK seed=%d (%.3f / %.3f bits)\n" seed
        v1.Privacy.data_dependent_bits v2.Privacy.data_dependent_bits;
      ok := false
    end;
    !ok

let prop_trace_equality =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make
       ~name:"random schemas: hidden constants are indistinguishable" ~count:20
       QCheck.(int_range 0 1_000_000)
       run_random_case)

let suite =
  [
    Alcotest.test_case "padding math" `Quick test_pad_math;
    Alcotest.test_case "entropy estimator" `Quick test_entropy;
    Alcotest.test_case "baseline leaks bits" `Quick test_baseline_leaks_bits;
    Alcotest.test_case "oblivious audits to zero" `Quick test_oblivious_audits_to_zero;
    Alcotest.test_case "pad mode shrinks the leak" `Quick test_pad_mode_shrinks_leak;
    Alcotest.test_case "trace equality: hidden constant" `Quick
      test_trace_equality_hidden_constant;
    Alcotest.test_case "trace equality: hidden range" `Quick
      test_trace_equality_hidden_range;
    Alcotest.test_case "hidden foreign keys keep the clock" `Quick
      test_hidden_fks_keep_the_clock;
    Alcotest.test_case "SKT widths are public: hidden keys move no page" `Quick
      test_skt_widths_public;
    Alcotest.test_case "rows match reference" `Quick test_rows_match_reference;
    Alcotest.test_case "rows after mutations" `Quick (rows_after_mutations ~leveled:false);
    Alcotest.test_case "rows after mutations: leveled log" `Quick
      (rows_after_mutations ~leveled:true);
    prop_trace_equality;
  ]
