(* Unit + property tests for ghost_kernel. *)

module Value = Ghost_kernel.Value
module Date = Ghost_kernel.Date
module Codec = Ghost_kernel.Codec
module Rng = Ghost_kernel.Rng
module Zipf = Ghost_kernel.Zipf
module Sorted_ids = Ghost_kernel.Sorted_ids
module Cursor = Ghost_kernel.Cursor
module Heap = Ghost_kernel.Heap
module Resources = Ghost_kernel.Resources

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

(* ---- Value ---- *)

let test_value_compare () =
  check Alcotest.bool "int order" true (Value.compare (Value.Int 1) (Value.Int 2) < 0);
  check Alcotest.bool "str pad-insensitive" true
    (Value.equal (Value.Str "abc") (Value.Str "abc\000\000"));
  check Alcotest.bool "null first" true
    (Value.compare Value.Null (Value.Int min_int) < 0);
  check Alcotest.bool "date order" true
    (Value.compare (Value.Date 10) (Value.Date 11) < 0)

let test_value_encode_roundtrip () =
  let cases = [
    (Value.T_int, Value.Int 42);
    (Value.T_int, Value.Int (-42));
    (Value.T_int, Value.Int 0);
    (Value.T_date, Value.Date 13000);
    (Value.T_float, Value.Float 3.25);
    (Value.T_float, Value.Float (-0.5));
    (Value.T_char 10, Value.Str "hello");
  ] in
  List.iter
    (fun (ty, v) ->
       let b = Value.encode ty v in
       check Alcotest.int "width" (Value.ty_width ty) (Bytes.length b);
       check Alcotest.bool "roundtrip" true (Value.equal v (Value.decode ty b 0)))
    cases

let test_value_encode_rejects () =
  Alcotest.check_raises "null" (Invalid_argument "Value.encode: NULL does not fit INTEGER")
    (fun () -> ignore (Value.encode Value.T_int Value.Null))

let prop_encode_order_int =
  QCheck.Test.make ~name:"int encoding is order-preserving" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
       let ea = Value.encode Value.T_int (Value.Int a) in
       let eb = Value.encode Value.T_int (Value.Int b) in
       Int.compare a b = Bytes.compare ea eb
       || (a <> b && Bytes.compare ea eb <> 0 && (Int.compare a b < 0) = (Bytes.compare ea eb < 0)))

let prop_key_prefix_order =
  QCheck.Test.make ~name:"key_prefix order agrees on ints" ~count:500
    QCheck.(pair int int)
    (fun (a, b) ->
       let pa = Value.key_prefix (Value.Int a) and pb = Value.key_prefix (Value.Int b) in
       if a = b then Bytes.equal pa pb
       else (Bytes.compare pa pb < 0) = (a < b))

let prop_float_encode_order =
  QCheck.Test.make ~name:"float encoding is order-preserving" ~count:500
    QCheck.(pair (float_range (-1e12) 1e12) (float_range (-1e12) 1e12))
    (fun (a, b) ->
       let ea = Value.encode Value.T_float (Value.Float a) in
       let eb = Value.encode Value.T_float (Value.Float b) in
       if Float.equal a b then Bytes.equal ea eb
       else (Bytes.compare ea eb < 0) = (a < b))

(* ---- Date ---- *)

let test_date_roundtrip_known () =
  check Alcotest.int "epoch" 0 (Date.of_ymd 1970 1 1);
  check Alcotest.string "epoch str" "1970-01-01" (Date.to_string 0);
  check Alcotest.int "parse" (Date.of_ymd 2006 11 5) (Date.of_string "2006-11-05");
  check Alcotest.bool "leap 2000" true (Date.is_leap_year 2000);
  check Alcotest.bool "not leap 1900" false (Date.is_leap_year 1900)

let prop_date_roundtrip =
  QCheck.Test.make ~name:"date ymd roundtrip" ~count:1000
    QCheck.(int_range (-200000) 200000)
    (fun days ->
       let y, m, d = Date.to_ymd days in
       Date.of_ymd y m d = days)

let test_date_invalid () =
  Alcotest.check_raises "bad month" (Invalid_argument "Date.of_ymd: month") (fun () ->
    ignore (Date.of_ymd 2020 13 1));
  Alcotest.check_raises "feb 30" (Invalid_argument "Date.of_ymd: day") (fun () ->
    ignore (Date.of_ymd 2020 2 30))

(* ---- Codec ---- *)

let prop_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" ~count:1000
    QCheck.(int_range 0 max_int)
    (fun v ->
       let buf = Buffer.create 10 in
       Codec.put_varint buf v;
       let b = Buffer.to_bytes buf in
       let v', off = Codec.get_varint b 0 in
       v = v' && off = Bytes.length b && off = Codec.varint_size v)

let prop_zigzag_roundtrip =
  QCheck.Test.make ~name:"zigzag roundtrip" ~count:1000 QCheck.int (fun v ->
    let buf = Buffer.create 10 in
    Codec.put_zigzag buf v;
    let v', _ = Codec.get_zigzag (Buffer.to_bytes buf) 0 in
    v = v')

(* Fields of random widths packed back to back from a random bit
   offset, each value drawn from 0, [2^w - 1] or anything between:
   every field reads back, and the bits around the packed span keep
   the 0xA5 fill they started with. *)
let prop_bits_roundtrip =
  let field =
    QCheck.Gen.(
      int_range 1 32 >>= fun w ->
      let top = (1 lsl w) - 1 in
      oneof [ return 0; return top; int_range 0 top ] >|= fun v -> (w, v))
  in
  QCheck.Test.make ~name:"bit fields round-trip at widths 1..32" ~count:500
    QCheck.(
      make ~print:Print.(pair int (list (pair int int)))
        Gen.(pair (int_range 0 15) (list_size (int_range 1 12) field)))
    (fun (start, fields) ->
       let bits = List.fold_left (fun acc (w, _) -> acc + w) 0 fields in
       let len = ((start + bits + 7) / 8) + 1 in
       let b = Bytes.make len '\xA5' in
       let orig = Bytes.copy b in
       ignore
         (List.fold_left
            (fun bit (width, v) -> Codec.put_bits b ~bit ~width v; bit + width)
            start fields);
       let back, _ =
         List.fold_left
           (fun (acc, bit) (width, _) -> (Codec.get_bits b ~bit ~width :: acc, bit + width))
           ([], start) fields
       in
       let outside_kept =
         let get b bit = (Bytes.get_uint8 b (bit / 8) lsr (7 - (bit mod 8))) land 1 in
         List.for_all
           (fun bit -> bit >= start && bit < start + bits || get b bit = get orig bit)
           (List.init (len * 8) Fun.id)
       in
       List.rev back = List.map snd fields && outside_kept)

(* A value that does not fit its width is refused, never truncated:
   the buffer is left as it was. *)
let test_bits_refuse_overflow () =
  List.iter
    (fun width ->
       let b = Bytes.make 6 '\000' in
       (match Codec.put_bits b ~bit:3 ~width (1 lsl width) with
        | () -> Alcotest.failf "2^%d fit %d bits" width width
        | exception Invalid_argument _ -> ());
       (match Codec.put_bits b ~bit:3 ~width (-1) with
        | () -> Alcotest.failf "-1 fit %d bits" width
        | exception Invalid_argument _ -> ());
       check Alcotest.string (Printf.sprintf "width %d: buffer untouched" width)
         (String.make 6 '\000') (Bytes.to_string b))
    [ 1; 7; 8; 13; 31; 32 ];
  List.iter
    (fun (n, w) -> check Alcotest.int (Printf.sprintf "bits_for %d" n) w (Codec.bits_for n))
    [ (0, 1); (1, 1); (2, 2); (100, 7); (2_500, 12); (0xFFFF_FFFF, 32) ]

let test_codec_fixed () =
  let b = Bytes.create 12 in
  Codec.put_u32 b 0 0xDEADBEEF;
  check Alcotest.int "u32" 0xDEADBEEF (Codec.get_u32 b 0);
  Codec.put_u64 b 4 123456789012345;
  check Alcotest.int "u64" 123456789012345 (Codec.get_u64 b 4);
  let buf = Buffer.create 8 in
  Codec.put_string16 buf "hello";
  let s, off = Codec.get_string16 (Buffer.to_bytes buf) 0 in
  check Alcotest.string "string16" "hello" s;
  check Alcotest.int "string16 off" 7 off

let test_crc32 () =
  (* IEEE 802.3 check value *)
  let b = Bytes.of_string "123456789" in
  check Alcotest.int "known value" 0xCBF43926 (Codec.crc32 b ~pos:0 ~len:9);
  check Alcotest.int "empty" 0 (Codec.crc32 b ~pos:0 ~len:0);
  (* incremental over a split range equals one pass *)
  let part = Codec.crc32 b ~pos:0 ~len:4 in
  check Alcotest.int "chained" 0xCBF43926 (Codec.crc32 ~crc:part b ~pos:4 ~len:5);
  (* any single-bit corruption is detected *)
  let reference = Codec.crc32 b ~pos:0 ~len:9 in
  Bytes.set b 3 (Char.chr (Char.code (Bytes.get b 3) lxor 0x10));
  check Alcotest.bool "bit flip changes crc" true
    (Codec.crc32 b ~pos:0 ~len:9 <> reference)

(* ---- Rng / Zipf ---- *)

let test_rng_deterministic () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.next a) (Rng.next b)
  done

let test_rng_bounds () =
  let r = Rng.create 7 in
  for _ = 1 to 1000 do
    let v = Rng.int r 10 in
    check Alcotest.bool "in bound" true (v >= 0 && v < 10);
    let w = Rng.int_in r 5 8 in
    check Alcotest.bool "in range" true (w >= 5 && w <= 8)
  done

let test_rng_float_range () =
  let r = Rng.create 3 in
  let saw_upper_half = ref false in
  for _ = 1 to 1000 do
    let f = Rng.float r 1.0 in
    check Alcotest.bool "in [0,1)" true (f >= 0. && f < 1.);
    if f > 0.5 then saw_upper_half := true
  done;
  check Alcotest.bool "covers the upper half" true !saw_upper_half

let test_zipf_skew () =
  let z = Zipf.create ~n:100 ~theta:1.0 in
  let r = Rng.create 1 in
  let counts = Array.make 101 0 in
  for _ = 1 to 20000 do
    let rank = Zipf.sample z r in
    counts.(rank) <- counts.(rank) + 1
  done;
  check Alcotest.bool "rank 1 most frequent" true (counts.(1) > counts.(50));
  check Alcotest.bool "rank 2 also sampled" true (counts.(2) > 0);
  check Alcotest.bool "tail sampled" true (counts.(50) > 0);
  check Alcotest.bool "not everything on rank 1" true (counts.(1) < 10000);
  check Alcotest.bool "probabilities sum to 1" true
    (let total = ref 0. in
     for i = 1 to 100 do total := !total +. Zipf.probability z i done;
     Float.abs (!total -. 1.0) < 1e-9)

let test_zipf_uniform () =
  let z = Zipf.create ~n:10 ~theta:0. in
  check Alcotest.bool "uniform prob" true
    (Float.abs (Zipf.probability z 5 -. 0.1) < 1e-9)

(* ---- Sorted_ids ---- *)

let sorted_gen =
  QCheck.Gen.(map (fun l -> Sorted_ids.of_unsorted l) (list_size (0 -- 40) (0 -- 100)))

let arb_sorted =
  QCheck.make ~print:(fun a -> QCheck.Print.(array int) a) sorted_gen

let module_intersect_spec a b =
  Array.to_list a |> List.filter (fun x -> Array.mem x b) |> Array.of_list

let prop_intersect =
  QCheck.Test.make ~name:"intersect = filter spec" ~count:500
    QCheck.(pair arb_sorted arb_sorted)
    (fun (a, b) -> Sorted_ids.intersect a b = module_intersect_spec a b)

let prop_union =
  QCheck.Test.make ~name:"union = sorted dedup of concat" ~count:500
    QCheck.(pair arb_sorted arb_sorted)
    (fun (a, b) ->
       Sorted_ids.union a b
       = Sorted_ids.of_unsorted (Array.to_list a @ Array.to_list b))

let prop_difference =
  QCheck.Test.make ~name:"difference spec" ~count:500
    QCheck.(pair arb_sorted arb_sorted)
    (fun (a, b) ->
       Sorted_ids.difference a b
       = (Array.to_list a |> List.filter (fun x -> not (Array.mem x b)) |> Array.of_list))

let prop_member =
  QCheck.Test.make ~name:"member = mem" ~count:500
    QCheck.(pair arb_sorted (0 -- 100))
    (fun (a, x) -> Sorted_ids.member a x = Array.mem x a)

let test_intersect_many () =
  let l1 = [| 1; 3; 5; 7; 9 |] and l2 = [| 3; 5; 9; 11 |] and l3 = [| 5; 9 |] in
  check Alcotest.(array int) "3-way" [| 5; 9 |] (Sorted_ids.intersect_many [ l1; l2; l3 ]);
  Alcotest.check_raises "empty input" (Invalid_argument "Sorted_ids.intersect_many: no lists")
    (fun () -> ignore (Sorted_ids.intersect_many []))

let test_deltas () =
  let ids = [| 0; 1; 4; 9 |] in
  let got = ref [] in
  Sorted_ids.iter_deltas (fun d -> got := d :: !got) ids;
  check Alcotest.(list int) "gap sequence" [ 0; 0; 2; 4 ] (List.rev !got);
  (* Adding delta + 1 to id_{-1} = -1 for every gap restores the last id. *)
  let last = ref (-1) in
  Sorted_ids.iter_deltas (fun d -> last := !last + d + 1) ids;
  check Alcotest.int "gaps restore last id" 9 !last;
  Sorted_ids.iter_deltas (fun _ -> Alcotest.fail "empty list emits no delta") [||];
  let bad = Invalid_argument "Sorted_ids: not strictly increasing non-negative" in
  Alcotest.check_raises "duplicate rejected" bad (fun () ->
      Sorted_ids.iter_deltas ignore [| 1; 1 |]);
  Alcotest.check_raises "descending rejected" bad (fun () ->
      Sorted_ids.iter_deltas ignore [| 3; 2 |]);
  Alcotest.check_raises "negative rejected" bad (fun () ->
      Sorted_ids.iter_deltas ignore [| -1; 2 |])

(* The deltas are the exact payload of Id_list climbing-index entries:
   re-encoding them as varints must reproduce Id_list.encode. *)
let prop_deltas_match_id_list =
  QCheck.Test.make ~name:"iter_deltas matches Id_list.encode" ~count:300
    arb_sorted (fun ids ->
      let buf = Buffer.create 64 in
      let sized = ref 0 in
      Sorted_ids.iter_deltas
        (fun d ->
           Codec.put_varint buf d;
           sized := !sized + Codec.varint_size d)
        ids;
      let via_deltas = Buffer.contents buf in
      via_deltas = Ghost_store.Id_list.encode ids && String.length via_deltas = !sized)

(* ---- Cursor ---- *)

let test_cursor_basics () =
  let c = Cursor.of_list [ 1; 2; 3 ] in
  check Alcotest.(list int) "to_list" [ 1; 2; 3 ] (Cursor.to_list c);
  check Alcotest.int "count" 4 (Cursor.count (Cursor.of_array [| 1; 2; 3; 4 |]));
  let doubled = Cursor.map (fun x -> 2 * x) (Cursor.of_list [ 1; 2 ]) in
  check Alcotest.(list int) "map" [ 2; 4 ] (Cursor.to_list doubled);
  let evens = Cursor.filter (fun x -> x mod 2 = 0) (Cursor.of_list [ 1; 2; 3; 4 ]) in
  check Alcotest.(list int) "filter" [ 2; 4 ] (Cursor.to_list evens);
  check Alcotest.(list int) "append" [ 1; 2; 3 ]
    (Cursor.to_list (Cursor.append (Cursor.of_list [ 1 ]) (Cursor.of_list [ 2; 3 ])))

let prop_cursor_intersect =
  QCheck.Test.make ~name:"cursor intersect = array intersect" ~count:300
    QCheck.(pair arb_sorted arb_sorted)
    (fun (a, b) ->
       Cursor.to_list
         (Cursor.intersect_sorted ~cmp:Int.compare (Cursor.of_array a)
            (Cursor.of_array b))
       = Array.to_list (Sorted_ids.intersect a b))

let prop_cursor_union =
  QCheck.Test.make ~name:"cursor union = array union" ~count:300
    QCheck.(pair arb_sorted arb_sorted)
    (fun (a, b) ->
       Cursor.to_list
         (Cursor.union_sorted ~cmp:Int.compare (Cursor.of_array a) (Cursor.of_array b))
       = Array.to_list (Sorted_ids.union a b))

let test_merge_join () =
  let left = Cursor.of_list [ (1, "a"); (2, "b"); (2, "b2"); (4, "d") ] in
  let right = Cursor.of_list [ (2, "X"); (3, "Y"); (4, "Z") ] in
  let joined =
    Cursor.merge_join ~left_key:fst ~right_key:fst left right |> Cursor.to_list
  in
  check Alcotest.int "matches" 3 (List.length joined);
  check Alcotest.bool "pairing" true
    (List.for_all (fun ((k, _), (k', _)) -> k = k') joined)

let test_peekable () =
  let c, peek = Cursor.peekable (Cursor.of_list [ 1; 2 ]) in
  check Alcotest.(option int) "peek" (Some 1) (peek ());
  check Alcotest.(option int) "next after peek" (Some 1) (Cursor.next c);
  check Alcotest.(option int) "next" (Some 2) (Cursor.next c);
  check Alcotest.(option int) "exhausted" None (peek ())

(* ---- Heap ---- *)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:300
    QCheck.(list int)
    (fun l ->
       let h = Heap.create ~cmp:Int.compare in
       List.iter (Heap.push h) l;
       let rec drain acc =
         match Heap.pop h with
         | None -> List.rev acc
         | Some x -> drain (x :: acc)
       in
       drain [] = List.sort Int.compare l)

(* ---- Resources ---- *)

let test_resources_order () =
  let log = ref [] in
  let r = Resources.create () in
  Resources.defer r (fun () -> log := 1 :: !log);
  Resources.defer r (fun () -> log := 2 :: !log);
  Resources.release r;
  check Alcotest.(list int) "reverse order" [ 1; 2 ] !log;
  Resources.release r;
  check Alcotest.(list int) "idempotent" [ 1; 2 ] !log

let test_resources_exception () =
  let freed = ref false in
  (try
     Resources.with_resources (fun r ->
       Resources.defer r (fun () -> freed := true);
       failwith "boom")
   with Failure _ -> ());
  check Alcotest.bool "released on exception" true !freed

let suite = [
  Alcotest.test_case "value compare" `Quick test_value_compare;
  Alcotest.test_case "value encode roundtrip" `Quick test_value_encode_roundtrip;
  Alcotest.test_case "value encode rejects null" `Quick test_value_encode_rejects;
  qtest prop_encode_order_int;
  qtest prop_key_prefix_order;
  qtest prop_float_encode_order;
  Alcotest.test_case "date known values" `Quick test_date_roundtrip_known;
  qtest prop_date_roundtrip;
  Alcotest.test_case "date invalid" `Quick test_date_invalid;
  qtest prop_varint_roundtrip;
  qtest prop_zigzag_roundtrip;
  qtest prop_bits_roundtrip;
  Alcotest.test_case "bit fields refuse overflow" `Quick test_bits_refuse_overflow;
  Alcotest.test_case "codec fixed-width" `Quick test_codec_fixed;
  Alcotest.test_case "codec crc32" `Quick test_crc32;
  Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
  Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
  Alcotest.test_case "rng float range" `Quick test_rng_float_range;
  Alcotest.test_case "zipf skew" `Quick test_zipf_skew;
  Alcotest.test_case "zipf uniform" `Quick test_zipf_uniform;
  qtest prop_intersect;
  qtest prop_union;
  qtest prop_difference;
  qtest prop_member;
  Alcotest.test_case "intersect_many" `Quick test_intersect_many;
  Alcotest.test_case "delta iteration" `Quick test_deltas;
  qtest prop_deltas_match_id_list;
  Alcotest.test_case "cursor basics" `Quick test_cursor_basics;
  qtest prop_cursor_intersect;
  qtest prop_cursor_union;
  Alcotest.test_case "merge_join" `Quick test_merge_join;
  Alcotest.test_case "peekable" `Quick test_peekable;
  qtest prop_heap_sorts;
  Alcotest.test_case "resources order" `Quick test_resources_order;
  Alcotest.test_case "resources exception" `Quick test_resources_exception;
]
