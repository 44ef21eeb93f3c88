(* Tests for the on-flash structures. *)

module Value = Ghost_kernel.Value
module Cursor = Ghost_kernel.Cursor
module Rng = Ghost_kernel.Rng
module Sorted_ids = Ghost_kernel.Sorted_ids
module Resources = Ghost_kernel.Resources
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Predicate = Ghost_relation.Predicate
module Pager = Ghost_store.Pager
module Id_list = Ghost_store.Id_list
module Column_store = Ghost_store.Column_store
module Skt = Ghost_store.Skt
module Climbing_index = Ghost_store.Climbing_index
module Merge_union = Ghost_store.Merge_union
module Ext_sort = Ghost_store.Ext_sort

let check = Alcotest.check
let qtest = QCheck_alcotest.to_alcotest

let flash () = Flash.create ~geometry:{ Flash.page_size = 256; pages_per_block = 8 } ()

(* ---- Pager ---- *)

let test_pager_roundtrip () =
  let f = flash () in
  let payload = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let seg = Pager.write_segment f payload in
  check Alcotest.int "length" 1000 (Pager.segment_bytes seg);
  Pager.with_reader f seg (fun r ->
    check Alcotest.string "whole" payload
      (Bytes.to_string (Pager.Reader.read r ~off:0 ~len:1000));
    check Alcotest.string "cross-page" (String.sub payload 250 12)
      (Bytes.to_string (Pager.Reader.read r ~off:250 ~len:12));
    check Alcotest.string "tail" (String.sub payload 990 10)
      (Bytes.to_string (Pager.Reader.read r ~off:990 ~len:10)))

let test_pager_window_caching () =
  let f = flash () in
  let seg = Pager.write_segment f (String.make 512 'x') in
  Pager.with_reader ~buffer_bytes:64 f seg (fun r ->
    let before = (Flash.stats f).Flash.page_reads in
    ignore (Pager.Reader.read r ~off:0 ~len:8);
    let after_first = (Flash.stats f).Flash.page_reads in
    ignore (Pager.Reader.read r ~off:8 ~len:8);
    ignore (Pager.Reader.read r ~off:16 ~len:8);
    let after_cached = (Flash.stats f).Flash.page_reads in
    check Alcotest.bool "first read hits flash" true (after_first > before);
    check Alcotest.int "window serves next reads" after_first after_cached)

(* A paged reader walking 24-byte values in order reads each 256-byte
   page once, though most values straddle a page boundary. *)
let test_pager_paged_scan () =
  let f = flash () in
  let payload = String.init 1000 (fun i -> Char.chr (i mod 251)) in
  let seg = Pager.write_segment f payload in
  let r = Pager.Reader.open_ ~paged:true f seg in
  let before = (Flash.stats f).Flash.page_reads in
  let off = ref 0 in
  while !off < 1000 do
    let len = min 24 (1000 - !off) in
    check Alcotest.string
      (Printf.sprintf "value at %d" !off)
      (String.sub payload !off len)
      (Bytes.to_string (Pager.Reader.read r ~off:!off ~len));
    off := !off + len
  done;
  check Alcotest.int "one read per page" (Array.length seg.Pager.pages)
    ((Flash.stats f).Flash.page_reads - before);
  check Alcotest.string "a jump back" (String.sub payload 250 12)
    (Bytes.to_string (Pager.Reader.read r ~off:250 ~len:12));
  Alcotest.check_raises "a paged window holds a page"
    (Invalid_argument "Pager.Reader.open_: a paged reader buffers a whole page")
    (fun () -> ignore (Pager.Reader.open_ ~buffer_bytes:64 ~paged:true f seg))

let test_pager_ram_accounting () =
  let f = flash () in
  let ram = Ram.create ~budget:4096 in
  let seg = Pager.write_segment f "hello" in
  let r = Pager.Reader.open_ ~ram ~buffer_bytes:512 f seg in
  check Alcotest.int "buffer charged" 512 (Ram.in_use ram);
  Pager.Reader.close r;
  check Alcotest.int "freed" 0 (Ram.in_use ram);
  Pager.Reader.close r;
  check Alcotest.int "idempotent" 0 (Ram.in_use ram)

let test_pager_bounds () =
  let f = flash () in
  let seg = Pager.write_segment f "abc" in
  Pager.with_reader f seg (fun r ->
    try
      ignore (Pager.Reader.read r ~off:1 ~len:3);
      Alcotest.fail "expected out of bounds"
    with Invalid_argument _ -> ())

(* ---- Id_list ---- *)

let sorted_gen =
  QCheck.Gen.(map Sorted_ids.of_unsorted (list_size (0 -- 60) (0 -- 10000)))

let arb_sorted = QCheck.make ~print:QCheck.Print.(array int) sorted_gen

let prop_id_list_roundtrip =
  QCheck.Test.make ~name:"id list encode/decode roundtrip" ~count:300 arb_sorted
    (fun ids ->
       Id_list.decode (Bytes.of_string (Id_list.encode ids)) = ids)

let prop_id_list_cursor =
  QCheck.Test.make ~name:"id list cursor streams the list" ~count:200 arb_sorted
    (fun ids ->
       let f = flash () in
       let encoded = Id_list.encode ids in
       let seg = Pager.write_segment f ("junk" ^ encoded) in
       Pager.with_reader ~buffer_bytes:16 f seg (fun r ->
         Cursor.to_list (Id_list.cursor r ~off:4 ~len:(String.length encoded))
         = Array.to_list ids))

let test_id_list_rejects_unsorted () =
  try
    ignore (Id_list.encode [| 3; 1 |]);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---- Column_store ---- *)

let test_column_store_get_scan () =
  let f = flash () in
  let values = Array.init 100 (fun i -> Value.Int (i * 7)) in
  let cs = Column_store.build f Value.T_int values in
  check Alcotest.int "count" 100 (Column_store.count cs);
  let r = Column_store.open_reader cs in
  check Alcotest.bool "get 1" true (Value.equal (Value.Int 0) (Column_store.get r 1));
  check Alcotest.bool "get 100" true
    (Value.equal (Value.Int 693) (Column_store.get r 100));
  let scanned = Cursor.to_list (Column_store.scan r) in
  check Alcotest.int "scan length" 100 (List.length scanned);
  check Alcotest.bool "scan pairs" true
    (List.for_all (fun (id, v) -> Value.equal v (Value.Int ((id - 1) * 7))) scanned);
  Column_store.close_reader r

let test_column_store_strings () =
  let f = flash () in
  let values = [| Value.Str "alpha"; Value.Str "beta"; Value.Str "a-very-long-nam" |] in
  let cs = Column_store.build f (Value.T_char 16) values in
  let r = Column_store.open_reader cs in
  check Alcotest.bool "string roundtrip" true
    (Value.equal (Value.Str "beta") (Column_store.get r 2));
  Column_store.close_reader r

let test_column_store_matching_ids () =
  let f = flash () in
  let values = Array.init 50 (fun i -> Value.Int (i mod 5)) in
  let cs = Column_store.build f Value.T_int values in
  let r = Column_store.open_reader cs in
  let ids = Cursor.to_array (Column_store.matching_ids r (Predicate.Eq (Value.Int 3))) in
  check Alcotest.int "10 matches" 10 (Array.length ids);
  check Alcotest.bool "sorted" true (Sorted_ids.is_sorted ids);
  check Alcotest.bool "all match" true
    (Array.for_all (fun id -> (id - 1) mod 5 = 3) ids);
  Column_store.close_reader r

(* ---- Skt ---- *)

(* R's subtree R -> A (7 rows) -> B (3 rows): the root id is the row's
   position, A takes 3 bits and B 2, so a row packs into one byte. *)
let test_skt_roundtrip () =
  let f = flash () in
  let rows = Array.init 20 (fun i -> [| i + 1; ((i + 1) mod 7) + 1; ((i + 1) mod 3) + 1 |]) in
  let skt = Skt.build f ~root:"R" ~levels:[ "R"; "A"; "B" ] ~max_ids:[ 7; 3 ] ~rows in
  check Alcotest.int "root count" 20 (Skt.root_count skt);
  check Alcotest.int "row width" 1 (Skt.row_width skt);
  check Alcotest.int "size" 20 (Skt.size_bytes skt);
  check Alcotest.int "level index" 1 (Skt.level_index skt "A");
  let r = Skt.open_reader skt in
  Array.iteri
    (fun i row -> check Alcotest.(array int) (Printf.sprintf "row %d" (i + 1)) row
        (Skt.get r (i + 1)))
    rows;
  check Alcotest.(array int) "row 10 again" rows.(9) (Skt.get r 10);
  Alcotest.check_raises "root id 0" (Invalid_argument "Skt: root id 0 out of 1..20")
    (fun () -> ignore (Skt.get r 0));
  Alcotest.check_raises "root id 21" (Invalid_argument "Skt: root id 21 out of 1..20")
    (fun () -> ignore (Skt.get r 21));
  Skt.close_reader r

let test_skt_validation () =
  let f = flash () in
  let refuses what build =
    match build () with
    | (_ : Skt.t) -> Alcotest.failf "expected Invalid_argument: %s" what
    | exception Invalid_argument _ -> ()
  in
  let build ?(levels = [ "R"; "A" ]) ?(max_ids = [ 5 ]) rows () =
    Skt.build f ~root:"R" ~levels ~max_ids ~rows
  in
  refuses "root first" (build ~levels:[ "A"; "R" ] [||]);
  refuses "no level below the root" (build ~levels:[ "R" ] ~max_ids:[] [||]);
  refuses "max_ids misaligned" (build ~max_ids:[ 5; 5 ] [||]);
  refuses "cardinality past 2^32 - 1" (build ~max_ids:[ 1 lsl 32 ] [||]);
  refuses "dense root ids" (build [| [| 2; 1 |] |]);
  refuses "row arity" (build [| [| 1; 1; 1 |] |]);
  (* 6 and 7 fit A's 3 bits, but A has 5 rows: no id is truncated or
     let past its level's cardinality *)
  refuses "id above its level's cardinality" (build [| [| 1; 5 |]; [| 2; 6 |] |]);
  refuses "id 0" (build [| [| 1; 0 |] |]);
  check Alcotest.int "the largest id fits" 1
    (Skt.root_count (build [| [| 1; 5 |] |] ()))

(* Random level cardinalities — 1, 2^k - 1, 2^k and up to 2^32 - 1, so
   a row is 1 to 16 bytes and most rows straddle a 256-byte page — and
   every id in its level's range, the extremes included. Every reader
   the executor and [Insert] open must return the rows as built: a
   64-byte window, a paged window, a row-sized buffer, the page cache,
   and the same behind sealed pages. *)
let gen_cardinality =
  QCheck.Gen.(
    oneof
      [
        return 1;
        map (fun k -> (1 lsl k) - 1) (1 -- 32);
        map (fun k -> 1 lsl k) (0 -- 31);
        int_range 1 0xFFFF_FFFF;
      ])

let gen_skt =
  QCheck.Gen.(
    triple (list_size (1 -- 4) gen_cardinality) (0 -- 300) int >|= fun (maxes, n, seed) ->
    let st = Random.State.make [| seed |] in
    let rows =
      Array.init n (fun i ->
        Array.of_list
          ((i + 1)
           :: List.map
                (fun m ->
                   match i mod 5 with
                   | 0 -> m
                   | 1 -> 1
                   | _ -> 1 + Random.State.full_int st m)
                maxes))
    in
    (maxes, rows))

let prop_skt_readers =
  QCheck.Test.make ~name:"skt rows round-trip through every reader" ~count:60
    (QCheck.make
       ~print:(fun (maxes, rows) ->
         Printf.sprintf "max_ids [%s], %d rows"
           (String.concat "; " (List.map string_of_int maxes))
           (Array.length rows))
       gen_skt)
    (fun (maxes, rows) ->
       let levels = "R" :: List.mapi (fun i _ -> Printf.sprintf "L%d" i) maxes in
       let bits = List.fold_left (fun acc m -> acc + Ghost_kernel.Codec.bits_for m) 0 maxes in
       let read_all ~authenticated open_reader =
         let f = flash () in
         Flash.set_authenticated f authenticated;
         let skt = Skt.build f ~root:"R" ~levels ~max_ids:maxes ~rows in
         let r = open_reader f skt in
         let ok =
           Skt.row_width skt = (bits + 7) / 8
           && Skt.size_bytes skt = Array.length rows * Skt.row_width skt
           && Array.for_all (fun row -> Skt.get r row.(0) = row) rows
           (* point probes out of order, as [Insert] makes them *)
           && Array.for_all
                (fun row -> Skt.get r row.(0) = row)
                (Array.of_list (List.rev (Array.to_list rows)))
         in
         Skt.close_reader r;
         ok
       in
       let cached f skt =
         let ram = Ram.create ~budget:4096 in
         let cache = Ghost_device.Page_cache.create ~ram f ~frames:2 in
         Skt.open_reader ~ram ~buffer_bytes:64 ~cache skt
       in
       List.for_all
         (fun authenticated ->
            read_all ~authenticated (fun _ skt -> Skt.open_reader ~buffer_bytes:64 skt)
            && read_all ~authenticated (fun _ skt -> Skt.open_reader ~paged:true skt)
            && read_all ~authenticated (fun _ skt ->
              Skt.open_reader ~buffer_bytes:(Skt.row_width skt) skt)
            && read_all ~authenticated cached)
         [ false; true ])

(* ---- Climbing_index (sorted) ---- *)

let build_sorted_index f entries =
  Climbing_index.build_sorted f ~table:"T" ~column:"c" ~levels:[ "T"; "P"; "R" ] entries

let example_entries =
  [
    (Value.Str "Antibiotic", [| [| 2; 5 |]; [| 1; 2; 9 |]; [| 3 |] |]);
    (Value.Str "Sclerosis", [| [| 1 |]; [| 4 |]; [| 1; 2 |] |]);
    (Value.Str "Zoster", [| [| 3; 4 |]; [| 5; 6 |]; [| 4; 5; 6 |] |]);
  ]

let drain source =
  let cursor, close = source () in
  let ids = Cursor.to_array cursor in
  close ();
  ids

let test_climbing_eq () =
  let f = flash () in
  let ram = Ram.create ~budget:65536 in
  let idx = build_sorted_index f example_entries in
  check Alcotest.int "entries" 3 (Climbing_index.entry_count idx);
  (match Climbing_index.lookup_eq ~ram idx (Value.Str "Sclerosis") ~level:"R" with
   | Some src -> check Alcotest.(array int) "root level" [| 1; 2 |] (drain src)
   | None -> Alcotest.fail "value not found");
  (match Climbing_index.lookup_eq ~ram idx (Value.Str "Antibiotic") ~level:"T" with
   | Some src -> check Alcotest.(array int) "own level" [| 2; 5 |] (drain src)
   | None -> Alcotest.fail "value not found");
  check Alcotest.(option unit) "absent value" None
    (Option.map ignore (Climbing_index.lookup_eq ~ram idx (Value.Str "Nope") ~level:"T"));
  check Alcotest.int "count_eq" 3
    (Climbing_index.count_eq ~ram idx (Value.Str "Antibiotic") ~level:"P");
  check Alcotest.int "ram released" 0 (Ram.in_use ram)

let union_all ~ram ~scratch sources =
  Resources.with_resources (fun resources ->
    Cursor.to_array (Merge_union.union ~ram ~scratch ~resources sources))

let test_climbing_range () =
  let f = flash () in
  let scratch = flash () in
  let ram = Ram.create ~budget:65536 in
  let entries =
    List.init 20 (fun i ->
      (Value.Int (i * 10), [| [| i + 1 |]; [| (2 * i) + 1; (2 * i) + 2 |]; [| i + 1 |] |]))
  in
  let idx = build_sorted_index f entries in
  let sources =
    Climbing_index.lookup_cmp ~ram idx
      (Predicate.Between (Value.Int 30, Value.Int 60))
      ~level:"T"
  in
  check Alcotest.(array int) "between" [| 4; 5; 6; 7 |] (union_all ~ram ~scratch sources);
  let lt = Climbing_index.lookup_cmp ~ram idx (Predicate.Lt (Value.Int 30)) ~level:"T" in
  check Alcotest.(array int) "lt" [| 1; 2; 3 |] (union_all ~ram ~scratch lt);
  let ge =
    Climbing_index.lookup_cmp ~ram idx (Predicate.Ge (Value.Int 180)) ~level:"T"
  in
  check Alcotest.(array int) "ge" [| 19; 20 |] (union_all ~ram ~scratch ge);
  let ne = Climbing_index.lookup_cmp ~ram idx (Predicate.Ne (Value.Int 0)) ~level:"T" in
  check Alcotest.int "ne count" 19 (Array.length (union_all ~ram ~scratch ne));
  let in_ =
    Climbing_index.lookup_cmp ~ram idx
      (Predicate.In [ Value.Int 50; Value.Int 0; Value.Int 999 ])
      ~level:"T"
  in
  check Alcotest.(array int) "in" [| 1; 6 |] (union_all ~ram ~scratch in_)

let prop_climbing_eq_random =
  QCheck.Test.make ~name:"climbing index eq lookups match the build input" ~count:50
    QCheck.(int_range 1 60)
    (fun n ->
       let f = flash () in
       let ram = Ram.create ~budget:65536 in
       let rng = Rng.create n in
       let entries =
         List.init n (fun i ->
           let lists =
             [|
               Sorted_ids.of_unsorted (List.init (1 + Rng.int rng 5) (fun _ -> 1 + Rng.int rng 500));
               Sorted_ids.of_unsorted (List.init (1 + Rng.int rng 8) (fun _ -> 1 + Rng.int rng 900));
               Sorted_ids.of_unsorted (List.init (1 + Rng.int rng 3) (fun _ -> 1 + Rng.int rng 100));
             |]
           in
           (Value.Int (i * 3), lists))
       in
       let idx = build_sorted_index f entries in
       List.for_all
         (fun (v, lists) ->
            match Climbing_index.lookup_eq ~ram idx v ~level:"P" with
            | Some src -> drain src = lists.(1)
            | None -> false)
         entries
       && Ram.in_use ram = 0)

let test_climbing_string_prefix_collision () =
  (* Strings sharing a 15-byte prefix must still be distinguished. *)
  let f = flash () in
  let ram = Ram.create ~budget:65536 in
  let a = "aaaaaaaaaaaaaaaaaaaaaaaa-one" and b = "aaaaaaaaaaaaaaaaaaaaaaaa-two" in
  let entries =
    [
      (Value.Str a, [| [| 1 |]; [| 10 |]; [| 100 |] |]);
      (Value.Str b, [| [| 2 |]; [| 20 |]; [| 200 |] |]);
    ]
  in
  let entries = List.sort (fun (x, _) (y, _) -> Value.compare x y) entries in
  let idx = build_sorted_index f entries in
  (match Climbing_index.lookup_eq ~ram idx (Value.Str b) ~level:"T" with
   | Some src -> check Alcotest.(array int) "collides resolved" [| 2 |] (drain src)
   | None -> Alcotest.fail "b not found");
  match Climbing_index.lookup_eq ~ram idx (Value.Str "aaaaaaaaaaaaaaaaaaaaaaaa-xxx") ~level:"T" with
  | Some _ -> Alcotest.fail "phantom match"
  | None -> ()

(* ---- Climbing_index (dense) ---- *)

let test_dense_index () =
  let f = flash () in
  let ram = Ram.create ~budget:65536 in
  (* id k at level P owns list [2k-1; 2k]; at level R owns [k]. *)
  let idx =
    Climbing_index.build_dense f ~table:"T" ~count:30 ~levels:[ "P"; "R" ] (fun id ->
      [| [| (2 * id) - 1; 2 * id |]; [| id |] |])
  in
  check Alcotest.(array int) "id 7 at P" [| 13; 14 |]
    (drain (Climbing_index.lookup_id ~ram idx 7 ~level:"P"));
  check Alcotest.(array int) "id 30 at R" [| 30 |]
    (drain (Climbing_index.lookup_id ~ram idx 30 ~level:"R"));
  check Alcotest.(array int) "out of range" [||]
    (drain (Climbing_index.lookup_id ~ram idx 31 ~level:"P"));
  try
    ignore (Climbing_index.lookup_eq ~ram idx (Value.Int 1) ~level:"P");
    Alcotest.fail "expected invalid sorted lookup on dense index"
  with Invalid_argument _ -> ()

(* ---- Merge_union ---- *)

let prop_union_matches_spec =
  QCheck.Test.make ~name:"merge union = sorted dedup union" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 12) arb_sorted)
    (fun lists ->
       let ram = Ram.create ~budget:8192 in
       let scratch = flash () in
       let sources = List.map Merge_union.of_array lists in
       let got = union_all ~ram ~scratch sources in
       let expected = Sorted_ids.union_many lists in
       got = expected && Ram.in_use ram = 0)

let test_union_hierarchical_spill () =
  (* Tiny arena forces multi-pass merging through scratch. *)
  let ram = Ram.create ~budget:1600 in
  let scratch = flash () in
  let lists = List.init 40 (fun i -> Array.init 30 (fun j -> (j * 40) + i)) in
  let sources = List.map Merge_union.of_array lists in
  let got = union_all ~ram ~scratch sources in
  check Alcotest.int "full range" 1200 (Array.length got);
  check Alcotest.bool "spilled to scratch" true
    ((Flash.stats scratch).Flash.page_programs > 0);
  check Alcotest.int "ram released" 0 (Ram.in_use ram)

(* ---- Ext_sort ---- *)

let record_of_int v =
  let b = Bytes.create 4 in
  Ghost_kernel.Codec.put_u32 b 0 v;
  b

let int_of_record b = Ghost_kernel.Codec.get_u32 b 0

let run_sort ~budget values =
  let ram = Ram.create ~budget in
  let scratch = flash () in
  let input = Cursor.map record_of_int (Cursor.of_list values) in
  let sorted =
    Resources.with_resources (fun resources ->
      Cursor.to_list
        (Cursor.map int_of_record
           (Ext_sort.sort ~ram ~scratch ~resources ~record_bytes:4
              ~compare:Bytes.compare input)))
  in
  (sorted, ram, scratch)

let prop_ext_sort_ram_path =
  QCheck.Test.make ~name:"ext sort (fits in ram) = List.sort" ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_range 0 50) (0 -- 1_000_000))
    (fun values ->
       let sorted, ram, scratch = run_sort ~budget:65536 values in
       sorted = List.sort Int.compare values
       && Ram.in_use ram = 0
       && (Flash.stats scratch).Flash.page_programs = 0)

let prop_ext_sort_spill_path =
  QCheck.Test.make ~name:"ext sort (spilled) = List.sort" ~count:30
    QCheck.(list_of_size (QCheck.Gen.int_range 200 600) (0 -- 1_000_000))
    (fun values ->
       let sorted, ram, scratch = run_sort ~budget:600 values in
       sorted = List.sort Int.compare values
       && Ram.in_use ram = 0
       && (Flash.stats scratch).Flash.page_programs > 0)

(* Under two pages of free arena the run and read buffers shrink so the
   one-page write buffer fits beside them: the sort spills and merges
   (hierarchically, with this many runs) instead of failing, down to
   the smallest footprint {!Ext_sort.fits} admits. *)
let test_ext_sort_tight_arena () =
  let page = 256 in
  let values = List.init 600 (fun i -> (i * 7919) mod 1000) in
  List.iter
    (fun budget ->
       let ram = Ram.create ~budget in
       check Alcotest.bool (Printf.sprintf "%d B: fits" budget) true
         (Ext_sort.fits ~ram ~scratch:(flash ()) ~record_bytes:4 ~records:600);
       let sorted, ram, scratch = run_sort ~budget values in
       check Alcotest.(list int) (Printf.sprintf "%d B: sorted" budget)
         (List.sort Int.compare values) sorted;
       check Alcotest.int (Printf.sprintf "%d B: RAM released" budget) 0 (Ram.in_use ram);
       check Alcotest.bool (Printf.sprintf "%d B: spilled" budget) true
         ((Flash.stats scratch).Flash.page_programs > 0))
    [ page + 32; page + 100; (2 * page) - 4 ];
  check Alcotest.bool "below the smallest spill" false
    (Ext_sort.fits ~ram:(Ram.create ~budget:(page + 31)) ~scratch:(flash ()) ~record_bytes:4
       ~records:600)

let test_ext_sort_wrong_width () =
  let ram = Ram.create ~budget:4096 in
  let scratch = flash () in
  try
    Resources.with_resources (fun resources ->
      ignore
        (Cursor.to_list
           (Ext_sort.sort ~ram ~scratch ~resources ~record_bytes:4
              ~compare:Bytes.compare
              (Cursor.of_list [ Bytes.create 3 ]))));
    Alcotest.fail "expected width error"
  with Invalid_argument _ -> ()

let suite = [
  Alcotest.test_case "pager roundtrip" `Quick test_pager_roundtrip;
  Alcotest.test_case "pager window caching" `Quick test_pager_window_caching;
  Alcotest.test_case "pager paged scan" `Quick test_pager_paged_scan;
  Alcotest.test_case "pager ram accounting" `Quick test_pager_ram_accounting;
  Alcotest.test_case "pager bounds" `Quick test_pager_bounds;
  qtest prop_id_list_roundtrip;
  qtest prop_id_list_cursor;
  Alcotest.test_case "id list rejects unsorted" `Quick test_id_list_rejects_unsorted;
  Alcotest.test_case "column store get/scan" `Quick test_column_store_get_scan;
  Alcotest.test_case "column store strings" `Quick test_column_store_strings;
  Alcotest.test_case "column store matching ids" `Quick test_column_store_matching_ids;
  Alcotest.test_case "skt roundtrip" `Quick test_skt_roundtrip;
  Alcotest.test_case "skt validation" `Quick test_skt_validation;
  qtest prop_skt_readers;
  Alcotest.test_case "climbing index eq" `Quick test_climbing_eq;
  Alcotest.test_case "climbing index ranges" `Quick test_climbing_range;
  qtest prop_climbing_eq_random;
  Alcotest.test_case "climbing index prefix collision" `Quick test_climbing_string_prefix_collision;
  Alcotest.test_case "dense key index" `Quick test_dense_index;
  qtest prop_union_matches_spec;
  Alcotest.test_case "union hierarchical spill" `Quick test_union_hierarchical_spill;
  qtest prop_ext_sort_ram_path;
  qtest prop_ext_sort_spill_path;
  Alcotest.test_case "ext sort wrong width" `Quick test_ext_sort_wrong_width;
  Alcotest.test_case "ext sort in a tight arena" `Quick test_ext_sort_tight_arena;
]
