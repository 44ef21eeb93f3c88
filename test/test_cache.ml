(* Tests of the shared page cache (Page_cache): eviction correctness
   under a tiny frame pool, RAM arena accounting, coherence across
   invalidation and reorganization, and determinism of the cached
   query path. *)

module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Page_cache = Ghost_device.Page_cache
module Medical = Ghost_workload.Medical
module Ghost_db = Ghostdb.Ghost_db

let check = Alcotest.check

let geometry = { Flash.page_size = 256; pages_per_block = 8 }

(* A flash with [n] programmed pages of distinct, position-dependent
   content, so any mixed-up fill or stale frame shows as a byte
   mismatch. *)
let flash_with_pages n =
  let f = Flash.create ~geometry () in
  for p = 0 to n - 1 do
    let page =
      Bytes.init geometry.Flash.page_size (fun i ->
        Char.chr ((p * 131 + i * 7) land 0xff))
    in
    ignore (Flash.append f page)
  done;
  f

let cache_read c ~page ~off ~len =
  let dst = Bytes.make len '\000' in
  Page_cache.read c ~page ~off ~len dst ~pos:0;
  Bytes.to_string dst

let test_eviction_correctness () =
  let pages = 9 in
  let f = flash_with_pages pages in
  let ram = Ram.create ~budget:(4 * geometry.Flash.page_size) in
  let c = Page_cache.create ~ram f ~frames:2 in
  (* Deterministic access pattern that cycles through more pages than
     frames, with re-touches at short and long distance. *)
  let accesses = ref [] in
  for round = 0 to 5 do
    for p = 0 to pages - 1 do
      let off = (round * 13 + p * 5) mod (geometry.Flash.page_size - 17) in
      accesses := (p, off, 17) :: !accesses;
      accesses := (p, 0, geometry.Flash.page_size) :: !accesses
    done
  done;
  List.iter
    (fun (page, off, len) ->
       check Alcotest.string
         (Printf.sprintf "page %d off %d len %d" page off len)
         (Bytes.to_string (Flash.read f ~page ~off ~len))
         (cache_read c ~page ~off ~len))
    (List.rev !accesses);
  let s = Page_cache.stats c in
  check Alcotest.bool "hits happened" true (s.Page_cache.hits > 0);
  check Alcotest.bool "misses happened" true (s.Page_cache.misses > 0);
  check Alcotest.int "resident bounded by pool" 2 (Page_cache.resident c);
  (* Once the pool is full every further fill evicts. *)
  check Alcotest.int "evictions = misses - frames"
    (s.Page_cache.misses - 2) s.Page_cache.evictions;
  Page_cache.close c

let test_ram_accounting () =
  let ram = Ram.create ~budget:(8 * geometry.Flash.page_size) in
  let f = flash_with_pages 2 in
  let before = Ram.in_use ram in
  let c = Page_cache.create ~ram f ~frames:3 in
  check Alcotest.int "pool charged to the arena"
    (before + (3 * geometry.Flash.page_size))
    (Ram.in_use ram);
  check Alcotest.int "frame_bytes reports the charge"
    (3 * geometry.Flash.page_size)
    (Page_cache.frame_bytes c);
  ignore (cache_read c ~page:0 ~off:0 ~len:16);
  Page_cache.close c;
  check Alcotest.int "pool released on close" before (Ram.in_use ram);
  Page_cache.close c (* idempotent *);
  check Alcotest.int "double close releases nothing twice" before
    (Ram.in_use ram);
  (try
     ignore (cache_read c ~page:0 ~off:0 ~len:16);
     Alcotest.fail "expected read after close to raise"
   with Invalid_argument _ -> ());
  (* Over budget: the arena, not the cache, decides. *)
  try
    ignore (Page_cache.create ~ram f ~frames:100);
    Alcotest.fail "expected Ram_exceeded"
  with Ram.Ram_exceeded _ -> ()

let test_invalidate_coherence () =
  let f = flash_with_pages 8 in
  let ram = Ram.create ~budget:(8 * geometry.Flash.page_size) in
  let c = Page_cache.create ~ram f ~frames:4 in
  let before = cache_read c ~page:3 ~off:0 ~len:geometry.Flash.page_size in
  check Alcotest.string "cached copy matches flash"
    (Bytes.to_string (Flash.read f ~page:3 ~off:0 ~len:geometry.Flash.page_size))
    before;
  (* Recycle page 3's block, append fresh content, and invalidate the
     way the log layers do after a program lands. *)
  Flash.erase_block f 0;
  let fresh = Bytes.make geometry.Flash.page_size 'Z' in
  let landed = ref [] in
  for _ = 1 to 8 do
    let page = Flash.append f fresh in
    landed := page :: !landed;
    Page_cache.invalidate c ~page
  done;
  check Alcotest.bool "recycled page 3" true (List.mem 3 !landed);
  check Alcotest.string "invalidation exposes the new bytes"
    (Bytes.to_string fresh)
    (cache_read c ~page:3 ~off:0 ~len:geometry.Flash.page_size);
  let s = Page_cache.stats c in
  check Alcotest.bool "invalidations counted" true
    (s.Page_cache.invalidations > 0);
  (* clear drops everything but keeps the pool. *)
  Page_cache.clear c;
  check Alcotest.int "nothing resident after clear" 0 (Page_cache.resident c);
  check Alcotest.string "reads still correct after clear"
    (Bytes.to_string fresh)
    (cache_read c ~page:3 ~off:0 ~len:geometry.Flash.page_size);
  Page_cache.close c

let cached_config frames =
  let page = Device.default_config.Device.flash_geometry.Flash.page_size in
  { Device.default_config with
    Device.page_cache_frames = frames;
    Device.ram_budget =
      Device.default_config.Device.ram_budget + (frames * page) }

let count_query =
  "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 8 AND 10"

let join_query =
  "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
   'Sclerosis' AND Vis.VisID = Pre.VisID"

let make_db ?device_config () =
  Ghost_db.of_schema ?device_config (Medical.schema ())
    (Medical.generate Medical.tiny)

let rows sql db = (Ghost_db.query db sql).Ghostdb.Exec.rows

let test_cached_results_match_uncached () =
  let plain = make_db () in
  let cached = make_db ~device_config:(cached_config 16) () in
  check Alcotest.bool "default device has no cache" true
    (Device.page_cache (Ghost_db.device plain) = None);
  check Alcotest.bool "configured device has a cache" true
    (Device.page_cache (Ghost_db.device cached) <> None);
  List.iter
    (fun sql ->
       check
         Alcotest.(list (list string))
         sql
         (List.map
            (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
            (rows sql plain))
         (List.map
            (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
            (rows sql cached)))
    [ count_query; join_query ];
  let s = Device.cache_stats (Ghost_db.device cached) in
  check Alcotest.bool "query path touched the cache" true
    (s.Page_cache.hits + s.Page_cache.misses > 0);
  (* A cold miss fills a whole frame where the cache-free reader reads
     a partial range, so the first pass may cost the cached device more;
     the claim is about the warm pass. *)
  let second_pass db =
    let device = Ghost_db.device db in
    let before = Device.elapsed_us device in
    List.iter (fun sql -> ignore (rows sql db)) [ count_query; join_query ];
    Device.elapsed_us device -. before
  in
  let warm_plain = second_pass plain in
  let warm_cached = second_pass cached in
  check Alcotest.bool "second pass: cached device time never worse" true
    (warm_cached <= warm_plain)

let test_reorganize_invalidates () =
  let db = make_db ~device_config:(cached_config 16) () in
  let before = rows count_query db in
  Ghost_db.delete db [ 1; 2; 3 ];
  let with_tombstones = rows count_query db in
  let db = Ghost_db.reorganize db in
  (* The old device's cache was cleared on reorganize and the rebuilt
     device answers from freshly laid-out Flash. *)
  check Alcotest.bool "rebuilt device keeps its cache" true
    (Device.page_cache (Ghost_db.device db) <> None);
  check
    Alcotest.(list (list string))
    "post-reorganize result matches pre-reorganize logical state"
    (List.map
       (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
       with_tombstones)
    (List.map
       (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
       (rows count_query db));
  (* The deletes were of Prescription ids; the count must not exceed
     the pre-delete one. *)
  let n l = match l with [ [ v ] ] -> int_of_string v | _ -> -1 in
  check Alcotest.bool "deletes visible" true
    (n (List.map
          (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
          before)
     >= n (List.map
             (fun r -> Array.to_list (Array.map Ghost_kernel.Value.to_string r))
             with_tombstones))

let test_determinism () =
  let run () =
    let db = make_db ~device_config:(cached_config 8) () in
    let device = Ghost_db.device db in
    List.iter (fun sql -> ignore (rows sql db)) [ count_query; join_query ];
    (Device.cache_stats device, Device.elapsed_us device)
  in
  let s1, t1 = run () in
  let s2, t2 = run () in
  check Alcotest.int "hits deterministic" s1.Page_cache.hits s2.Page_cache.hits;
  check Alcotest.int "misses deterministic" s1.Page_cache.misses
    s2.Page_cache.misses;
  check Alcotest.int "evictions deterministic" s1.Page_cache.evictions
    s2.Page_cache.evictions;
  check (Alcotest.float 0.0) "device time deterministic" t1 t2

let suite =
  [
    Alcotest.test_case "eviction correctness (tiny pool)" `Quick
      test_eviction_correctness;
    Alcotest.test_case "ram accounting" `Quick test_ram_accounting;
    Alcotest.test_case "invalidate + clear coherence" `Quick
      test_invalidate_coherence;
    Alcotest.test_case "cached results match uncached" `Quick
      test_cached_results_match_uncached;
    Alcotest.test_case "reorganize invalidates" `Quick
      test_reorganize_invalidates;
    Alcotest.test_case "determinism" `Quick test_determinism;
  ]
