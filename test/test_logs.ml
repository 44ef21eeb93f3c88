(* Direct unit tests of the append-only logs (insert delta, deletion
   tombstones): encoding, Flash behaviour, write amplification. *)

module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Delta_log = Ghostdb.Delta_log
module Tombstone_log = Ghostdb.Tombstone_log

let check = Alcotest.check

let flash () = Flash.create ~geometry:{ Flash.page_size = 256; pages_per_block = 8 } ()

let make_delta f =
  Delta_log.create f ~table:"R" ~levels:[ "R"; "A"; "B" ] ~max_ids:[ 63; 127 ]
    ~hidden_cols:[ ("q", Value.T_int); ("s", Value.T_char 8) ]

(* The i-th record of the scripts below. *)
let row i =
  {
    Delta_log.ids = [| 100 + i; i; (2 * i) + 1 |];
    hidden = [| Value.Int (i * 3); Value.Str (Printf.sprintf "s%d" i) |];
  }

(* A record with root id [k] and blank hidden values. *)
let blank k = { Delta_log.ids = [| k; 1; 1 |]; hidden = [| Value.Int 0; Value.Str "" |] }

let test_delta_roundtrip () =
  let f = flash () in
  let log = make_delta f in
  check Alcotest.int "record bytes" (12 + 8 + 8) (Delta_log.record_bytes log);
  for i = 1 to 25 do
    Delta_log.append log [ row i ]
  done;
  check Alcotest.int "count" 25 (Delta_log.count log);
  let seen = ref 0 in
  Delta_log.scan log (fun r ->
    incr seen;
    let i = !seen in
    check Alcotest.(array int) "ids" [| 100 + i; i; (2 * i) + 1 |] r.Delta_log.ids;
    check Alcotest.bool "hidden value" true
      (Value.equal (Value.Int (i * 3)) (Delta_log.hidden_value log r "q"));
    check Alcotest.bool "hidden assoc" true
      (List.assoc "s" (Delta_log.hidden_assoc log r)
       = Value.Str (Printf.sprintf "s%d" i)));
  check Alcotest.int "scanned all" 25 !seen

let test_delta_validation () =
  let log = make_delta (flash ()) in
  (try
     Delta_log.append log
       [ { Delta_log.ids = [| 1 |]; hidden = [| Value.Int 1; Value.Str "a" |] } ];
     Alcotest.fail "expected misaligned ids"
   with Invalid_argument _ -> ());
  try
    Delta_log.append log [ { Delta_log.ids = [| 1; 2; 3 |]; hidden = [| Value.Int 1 |] } ];
    Alcotest.fail "expected misaligned hidden"
  with Invalid_argument _ -> ()

let test_delta_write_amplification () =
  let f = flash () in
  let log = make_delta f in
  (* 256-byte pages minus the 20-byte header, 28-byte records: 8 per
     page. Every append re-programs the tail page. *)
  for i = 1 to 8 do
    Delta_log.append log [ blank i ]
  done;
  let s = Flash.stats f in
  check Alcotest.int "one program per append" 8 s.Flash.page_programs;
  check Alcotest.bool "dead bytes accumulate" true (Delta_log.dead_bytes log > 0);
  check Alcotest.int "live = 8 records" (8 * 28) (Delta_log.size_bytes log)

let test_tombstones () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  Tombstone_log.append log [ 5; 1; 9 ];
  Tombstone_log.append log [ 2 ];
  check Alcotest.int "count" 4 (Tombstone_log.count log);
  check Alcotest.bool "mem" true (Tombstone_log.mem log 9);
  check Alcotest.bool "not mem" false (Tombstone_log.mem log 3);
  check Alcotest.(array int) "sorted load" [| 1; 2; 5; 9 |]
    (Tombstone_log.load_sorted log);
  (* load is metered *)
  let before = (Flash.stats f).Flash.page_reads in
  ignore (Tombstone_log.load_sorted log);
  check Alcotest.bool "flash read charged" true
    ((Flash.stats f).Flash.page_reads > before)

let test_tombstones_many_pages () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  (* 59 ids per sealed 256-byte page: cross several pages *)
  Tombstone_log.append log (List.init 200 (fun i -> i + 1));
  check Alcotest.int "count" 200 (Tombstone_log.count log);
  check Alcotest.int "all back" 200 (Array.length (Tombstone_log.load_sorted log))

let append_n log n =
  for i = 1 to n do
    Delta_log.append log [ row i ]
  done

let scanned_ids log =
  let acc = ref [] in
  Delta_log.scan log (fun r -> acc := r.Delta_log.ids.(0) :: !acc);
  List.rev !acc

let test_delta_dead_bytes_quantified () =
  let f = flash () in
  let log = make_delta f in
  (* rpp = 8: k tail reprograms strand 0+1+...+(k-1) records *)
  for k = 1 to 7 do
    Delta_log.append log [ blank k ];
    check Alcotest.int (Printf.sprintf "dead after %d" k)
      (28 * (k * (k - 1) / 2)) (Delta_log.dead_bytes log)
  done;
  (* the 8th append completes the page: its superseded predecessor
     still counts, and the next append opens a fresh tail with no dead
     space *)
  Delta_log.append log [ blank 8 ];
  check Alcotest.int "dead after full page" (28 * 28) (Delta_log.dead_bytes log);
  Delta_log.append log [ blank 9 ];
  check Alcotest.int "fresh tail adds none" (28 * 28) (Delta_log.dead_bytes log)

let test_delta_power_cut_recovery () =
  let f = flash () in
  let log = make_delta f in
  append_n log 11;  (* one full page (8) + tail of 3 *)
  Flash.arm_power_cut f ~after_programs:1;
  (try
     Delta_log.append log [ row 12 ];
     Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Delta_log.needs_recovery log);
  (* volatile state still counts the unacknowledged record *)
  check Alcotest.int "volatile count" 12 (Delta_log.count log);
  (try
     append_n log 1;
     Alcotest.fail "append must refuse"
   with Invalid_argument _ -> ());
  let r = Delta_log.recover log in
  check Alcotest.int "recovered acknowledged prefix" 11 r.Delta_log.recovered;
  check Alcotest.int "lost the torn record" 1 r.Delta_log.lost;
  check Alcotest.bool "torn page seen" true (r.Delta_log.torn_pages >= 1);
  check Alcotest.bool "recovered" false (Delta_log.needs_recovery log);
  check Alcotest.(list int) "contents = acknowledged appends"
    (List.init 11 (fun i -> 101 + i)) (scanned_ids log);
  (* the log is usable again *)
  Delta_log.append log [ row 12 ];
  check Alcotest.int "append after recovery" 12 (Delta_log.count log)

let test_delta_power_cut_on_first_append () =
  let f = flash () in
  let log = make_delta f in
  Flash.arm_power_cut f ~after_programs:1;
  (try append_n log 1; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Delta_log.recover log in
  check Alcotest.int "nothing durable" 0 r.Delta_log.recovered;
  check Alcotest.int "one lost" 1 r.Delta_log.lost;
  check Alcotest.int "empty log" 0 (Delta_log.count log);
  append_n log 3;
  check Alcotest.(list int) "restarts cleanly" [ 101; 102; 103 ] (scanned_ids log)

let test_tombstone_power_cut_recovery () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  Tombstone_log.append log [ 5; 1; 9 ];
  (* 59 ids per checksummed page: the next batch of 60 completes the
     tail's page (56 ids) and spills 4 into a fresh one. Tear its 2nd
     program: the 1st program's ids are durable, the torn one's are
     not. *)
  let first = [ 2; 7; 4 ] @ List.init 53 (fun i -> 100 + i) in
  let torn = [ 153; 154; 155; 156 ] in
  Flash.arm_power_cut f ~after_programs:2;
  (try Tombstone_log.append log (first @ torn); Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  check Alcotest.bool "needs recovery" true (Tombstone_log.needs_recovery log);
  check Alcotest.int "acknowledged = the completed program" 59
    (Tombstone_log.acknowledged log);
  let r = Tombstone_log.recover log in
  check Alcotest.int "durable prefix of the batch" 59 r.Tombstone_log.recovered;
  check Alcotest.int "torn program's ids lost" 4 r.Tombstone_log.lost;
  check Alcotest.(array int) "sorted load"
    (Array.of_list (List.sort compare ([ 5; 1; 9 ] @ first)))
    (Tombstone_log.load_sorted log);
  check Alcotest.bool "membership rebuilt" true (Tombstone_log.mem log 2);
  check Alcotest.bool "torn id not a member" false (Tombstone_log.mem log 153);
  Tombstone_log.append log torn;
  check Alcotest.int "resumes" 63 (Tombstone_log.count log)

(* A batch programs once per page it fills and once for its last
   partial page; only its first program supersedes a tail program. *)
let test_batch_programs_per_page () =
  let f = flash () in
  let log = make_delta f in
  let programs () = (Flash.stats f).Flash.page_programs in
  Delta_log.append log (List.init 3 (fun i -> row (i + 1)));
  check Alcotest.int "a partial page is one program" 1 (programs ());
  (* 8 records per checksummed page: 3 + 22 = 25 completes the tail's
     page, fills two more and leaves a tail of 1 *)
  Delta_log.append log (List.init 22 (fun i -> row (i + 4)));
  check Alcotest.int "one program per page touched" 5 (programs ());
  check Alcotest.int "dead bytes = the superseded tail" (3 * 28)
    (Delta_log.dead_bytes log);
  check Alcotest.int "acknowledged" 25 (Delta_log.acknowledged log);
  check Alcotest.(list int) "records in order" (List.init 25 (fun i -> 101 + i))
    (scanned_ids log);
  Delta_log.append log [];
  check Alcotest.int "an empty batch programs nothing" 5 (programs ())

(* A tear on the first program of a fresh page leaves the previous
   page's superseded tails behind as valid pages whose sequence does
   not continue the prefix: they are not torn. *)
let test_tear_on_fresh_page () =
  let f = flash () in
  let log = make_delta f in
  append_n log 8;  (* exactly one full page *)
  Flash.arm_power_cut f ~after_programs:1;
  (try append_n log 1; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Delta_log.recover log in
  check Alcotest.int "delta recovered" 8 r.Delta_log.recovered;
  check Alcotest.int "delta lost" 1 r.Delta_log.lost;
  check Alcotest.int "delta torn pages" 1 r.Delta_log.torn_pages;
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  (* 59 ids per 236-byte payload: exactly one full page *)
  Tombstone_log.append log (List.init 59 (fun i -> i + 1));
  Flash.arm_power_cut f ~after_programs:1;
  (try Tombstone_log.append log [ 60 ]; Alcotest.fail "expected Power_cut"
   with Flash.Power_cut _ -> ());
  let r = Tombstone_log.recover log in
  check Alcotest.int "tombstones recovered" 59 r.Tombstone_log.recovered;
  check Alcotest.int "tombstones lost" 1 r.Tombstone_log.lost;
  check Alcotest.int "tombstone torn pages" 1 r.Tombstone_log.torn_pages

(* Two flipped bits are past ECC: the damaged full page fails its CRC,
   so recovery keeps the pages before it and drops everything after,
   tail included. Every program takes the next fresh page: appended
   one record at a time, the k-th full page is the program of the
   (k * records_per_page)-th append; appended as one batch, it is the
   batch's k-th program. *)
let test_bit_rot_truncates () =
  let rot f page =
    Flash.corrupt_stored f ~page ~bit:200;
    Flash.corrupt_stored f ~page ~bit:201
  in
  let f = flash () in
  let log = make_delta f in
  append_n log 30;  (* 3 full pages of 8 + a tail of 6 *)
  rot f 15;  (* the 2nd full page *)
  let r = Delta_log.recover log in
  check Alcotest.int "delta keeps the 1st page" 8 r.Delta_log.recovered;
  check Alcotest.int "delta drops the rest" 22 r.Delta_log.lost;
  check Alcotest.int "delta damaged page torn" 1 r.Delta_log.torn_pages;
  check Alcotest.(list int) "delta contents" (List.init 8 (fun i -> 101 + i))
    (scanned_ids log);
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  Tombstone_log.append log (List.init 150 (fun i -> i + 1));  (* 2 pages of 59 + 32 *)
  rot f 1;  (* the 2nd full page *)
  let r = Tombstone_log.recover log in
  check Alcotest.int "tombstones keep the 1st page" 59 r.Tombstone_log.recovered;
  check Alcotest.int "tombstones drop the rest" 91 r.Tombstone_log.lost;
  check Alcotest.int "tombstone damaged page torn" 1 r.Tombstone_log.torn_pages;
  check Alcotest.(array int) "tombstone contents" (Array.init 59 (fun i -> i + 1))
    (Tombstone_log.load_sorted log);
  check Alcotest.bool "kept id is a member" true (Tombstone_log.mem log 59);
  check Alcotest.bool "dropped id is not" false (Tombstone_log.mem log 60)

(* ---- golden on-Flash bytes ----

   A fixed script per log on small-page Flash, pinned to a
   CRC-32 over every programmed page (id and bytes) plus the Flash
   read, program and time counters. Any change to the page images or
   to the order, offset or length of a metered Flash operation moves
   the pin. *)

let flash_digest f =
  let s = Flash.stats f in
  let crc = ref 0 in
  for page = 0 to Flash.page_count f - 1 do
    if Flash.is_programmed f page then begin
      let id = Bytes.create 4 in
      Codec.put_u32 id 0 page;
      crc := Codec.crc32 ~crc:!crc id ~pos:0 ~len:4;
      let b = Flash.read_page f page in
      crc := Codec.crc32 ~crc:!crc b ~pos:0 ~len:(Bytes.length b)
    end
  done;
  Printf.sprintf "pages=%d crc=%08x reads=%d read_bytes=%d programs=%d \
                  program_bytes=%d read_us=%h write_us=%h"
    (Flash.page_count f) !crc s.Flash.page_reads s.Flash.bytes_read
    s.Flash.page_programs s.Flash.bytes_programmed s.Flash.read_time_us
    s.Flash.write_time_us

let tear f k run =
  Flash.arm_power_cut f ~after_programs:k;
  try run (); Alcotest.fail "expected Power_cut" with Flash.Power_cut _ -> ()

let golden_delta () =
  let f = flash () in
  let log = make_delta f in
  append_n log 20;
  tear f 1 (fun () -> append_n log 1);
  let r = Delta_log.recover log in
  append_n log 13;
  let rows = List.length (scanned_ids log) in
  Printf.sprintf "rows=%d recovered=%d lost=%d %s" rows r.Delta_log.recovered
    r.Delta_log.lost (flash_digest f)

let golden_tombstones () =
  let f = flash () in
  let log = Tombstone_log.create f ~table:"R" in
  Tombstone_log.append log (List.init 150 (fun i -> (7 * i) + 1));
  (* 27 ids complete the tail's page, the torn 2nd program holds 13 *)
  tear f 2 (fun () -> Tombstone_log.append log (List.init 40 (fun i -> 2000 + i)));
  let r = Tombstone_log.recover log in
  Tombstone_log.append log (List.init 30 (fun i -> 3000 + i));
  let ids = Array.length (Tombstone_log.load_sorted log) in
  Printf.sprintf "ids=%d recovered=%d lost=%d %s" ids r.Tombstone_log.recovered
    r.Tombstone_log.lost (flash_digest f)

let golden_runs () =
  let f = flash () in
  let log =
    Delta_log.create
      ~runs:{ Delta_log.l0_spill_pages = 2; run_fanout = 2 }
      f ~table:"R" ~levels:[ "R"; "A"; "B" ] ~max_ids:[ 63; 127 ]
      ~hidden_cols:[ ("q", Value.T_int); ("s", Value.T_char 8) ]
  in
  let installs = ref [] in
  let drain () =
    while Delta_log.compaction_pending log do
      match Delta_log.compact_step ~drop:(fun id -> id mod 5 = 0) log ~max_pages:1 with
      | Delta_log.Installed i -> installs := i.Delta_log.inst_spill :: !installs
      | Delta_log.Idle | Delta_log.Worked -> ()
    done
  in
  let append_range lo hi = for i = lo to hi do Delta_log.append log [ row i ] done in
  append_range 1 17;
  drain ();
  append_range 18 33;
  drain ();
  let rows = List.length (scanned_ids log) in
  let fenced = ref 0 and fenced_ids = ref 0 in
  Delta_log.scan_range ~lo:110 ~hi:115 log (fun _ -> incr fenced);
  Delta_log.scan_range ~lo:110 ~hi:115 ~values:false log (fun _ -> incr fenced_ids);
  Printf.sprintf "installs=%s rows=%d fenced=%d fenced_ids=%d runs=%d l0=%d %s"
    (String.concat "," (List.rev_map (fun s -> if s then "spill" else "merge") !installs))
    rows !fenced !fenced_ids (Delta_log.run_count log) (Delta_log.l0_pages log)
    (flash_digest f)

let test_golden_bytes () =
  List.iter
    (fun (name, expected, actual) -> check Alcotest.string name expected (actual ()))
    [
      ( "delta",
        "rows=33 recovered=20 lost=1 pages=34 crc=fe83bed8 reads=8 \
         read_bytes=1692 programs=34 program_bytes=4797 \
         read_us=0x1.e499999999999p+7 write_us=0x1.c3fbae147ae15p+12",
        golden_delta );
      ( "tombstones",
        "ids=207 recovered=177 lost=13 pages=6 crc=3b5b9137 reads=8 \
         read_bytes=1852 programs=6 program_bytes=1092 \
         read_us=0x1.ec9999999999bp+7 write_us=0x1.4491eb851eb85p+10",
        golden_tombstones );
      ( "delta runs",
        "installs=spill,spill,merge rows=27 fenced=5 fenced_ids=5 runs=1 l0=1 \
         pages=40 crc=8511a7e5 reads=17 read_bytes=2269 programs=40 \
         program_bytes=5891 read_us=0x1.e1b999999999ap+8 \
         write_us=0x1.0a91851eb851fp+13",
        golden_runs );
    ]

let suite = [
  Alcotest.test_case "delta roundtrip" `Quick test_delta_roundtrip;
  Alcotest.test_case "delta dead bytes quantified" `Quick test_delta_dead_bytes_quantified;
  Alcotest.test_case "delta power-cut recovery" `Quick test_delta_power_cut_recovery;
  Alcotest.test_case "delta power cut on first append" `Quick test_delta_power_cut_on_first_append;
  Alcotest.test_case "tombstone power-cut recovery" `Quick test_tombstone_power_cut_recovery;
  Alcotest.test_case "a batch programs once per page" `Quick test_batch_programs_per_page;
  Alcotest.test_case "delta validation" `Quick test_delta_validation;
  Alcotest.test_case "delta write amplification" `Quick test_delta_write_amplification;
  Alcotest.test_case "tombstones" `Quick test_tombstones;
  Alcotest.test_case "tombstones across pages" `Quick test_tombstones_many_pages;
  Alcotest.test_case "golden on-flash bytes" `Quick test_golden_bytes;
  Alcotest.test_case "tear on a fresh page counts one torn page" `Quick
    test_tear_on_fresh_page;
  Alcotest.test_case "bit-rot on a full page truncates the log" `Quick
    test_bit_rot_truncates;
]
