module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Trace = Ghost_device.Trace
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Plan = Ghostdb.Plan
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost
module Exec = Ghostdb.Exec
module Privacy = Ghostdb.Privacy
module Spy = Ghost_public.Spy
module Baseline = Ghost_baseline.Baseline

let default_scale = Medical.small

let make_db ?device_config scale =
  Ghost_db.of_schema ?device_config (Medical.schema ()) (Medical.generate scale)

(* ---- E1 / Figure 6 ---- *)

let fig6_plans ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let q = Ghost_db.bind db Queries.demo in
  let plans =
    [
      ("P1 all-Pre", Planner.all_pre cat q);
      ("P2 all-Post", Planner.all_post cat q);
      ("P3 Cross", Planner.cross cat q);
      ("P4 optimizer", fst (Planner.best cat q));
    ]
  in
  let rows =
    List.map
      (fun (name, plan) ->
         let est = Cost.estimate cat plan in
         let r = Ghost_db.run_plan db plan in
         [
           name;
           Report.us r.Exec.elapsed_us;
           Report.us est.Cost.est_time_us;
           Report.bytes r.Exec.ram_peak;
           string_of_int r.Exec.row_count;
           plan.Plan.label;
         ])
      plans
  in
  Report.make ~id:"E1" ~title:"Figure 6 - ad-hoc plan comparison (demo query)"
    ~header:[ "plan"; "exec time"; "est time"; "RAM peak"; "rows"; "strategy" ]
    ~notes:
      [
        Printf.sprintf "demo query: %s" (String.concat " " (String.split_on_char '\n' Queries.demo));
        Printf.sprintf "scale: %d prescriptions" scale.Medical.prescriptions;
      ]
    rows

(* ---- E2 crossover ---- *)

let crossover_selectivities =
  [ 0.001; 0.002; 0.005; 0.01; 0.02; 0.05; 0.1; 0.2; 0.35; 0.5 ]

let pre_post_crossover ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let strategies =
    [ Plan.V_pre; Plan.V_post; Plan.V_cross_pre; Plan.V_cross_post ]
  in
  let rows =
    List.map
      (fun sel ->
         let sql =
           Printf.sprintf
             "SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.Date > '%s' \
              AND Vis.Purpose = 'Checkup' AND Vis.VisID = Pre.VisID"
             (Ghost_kernel.Date.to_string (Medical.date_cutoff_for_selectivity sel))
         in
         let q = Ghost_db.bind db sql in
         let times =
           List.map
             (fun s ->
                let plan = Planner.uniform cat q s in
                (Ghost_db.run_plan db plan).Exec.elapsed_us)
             strategies
         in
         let best_label = (fst (Planner.best cat q)).Plan.label in
         (* report the strategy the optimizer picked for the Date
            predicate: the token after "Visit{Date}:" *)
         let chosen =
           let marker = "Visit{Date}:" in
           let ml = String.length marker in
           let rec find i =
             if i + ml > String.length best_label then "?"
             else if String.sub best_label i ml = marker then begin
               let rest = String.sub best_label (i + ml) (String.length best_label - i - ml) in
               match String.index_opt rest ' ' with
               | Some j -> String.sub rest 0 j
               | None -> rest
             end
             else find (i + 1)
           in
           find 0
         in
         Printf.sprintf "%.3f" sel
         :: List.map Report.us times
         @ [ chosen ])
      crossover_selectivities
  in
  Report.make ~id:"E2"
    ~title:"Pre vs Post vs Cross filtering as visible selectivity grows"
    ~header:[ "Date sel."; "Pre"; "Post"; "Cross-Pre"; "Cross-Post"; "optimizer" ]
    ~notes:
      [
        "query: Vis.Date > cutoff (visible) AND Vis.Purpose = 'Checkup' (hidden)";
        "expected shape: Pre wins at high selectivity (few ids to climb), Post wins as \
         the visible predicate grows unselective";
      ]
    rows

(* ---- E3 operator stats ---- *)

let operator_stats ?(scale = default_scale) () =
  let db = make_db scale in
  let r = Ghost_db.query db Queries.demo in
  let rows =
    List.map
      (fun (o : Exec.op_stats) ->
         [
           o.Exec.op_label;
           string_of_int o.Exec.tuples_in;
           string_of_int o.Exec.tuples_out;
           Report.bytes o.Exec.ram_peak;
           Report.us o.Exec.usage.Device.total_us;
         ])
      r.Exec.ops
  in
  Report.make ~id:"E3" ~title:"Per-operator statistics (demo query, optimizer plan)"
    ~header:[ "operator"; "tuples in"; "tuples out"; "local RAM"; "time" ]
    ~notes:
      [
        Printf.sprintf "total: %s, %d result rows, RAM peak %s"
          (Report.us r.Exec.elapsed_us) r.Exec.row_count (Report.bytes r.Exec.ram_peak);
      ]
    rows

(* ---- E4 privacy trace ---- *)

let privacy_trace ?(scale = default_scale) () =
  let db = make_db scale in
  Ghost_db.clear_trace db;
  ignore (Ghost_db.query db Queries.demo);
  let report = Ghost_db.spy_report db in
  let verdict = Ghost_db.audit db in
  let link_rows =
    List.map
      (fun (s : Spy.link_summary) ->
         [
           Trace.link_name s.Spy.link;
           string_of_int s.Spy.messages;
           Report.bytes s.Spy.bytes;
         ])
      report.Spy.per_link
  in
  Report.make ~id:"E4" ~title:"What the spy sees (demo query)"
    ~header:[ "link"; "messages"; "bytes" ]
    ~notes:
      ([
         Printf.sprintf "queries observed: %d" (List.length report.Spy.queries_observed);
         Printf.sprintf "device outbound payload: %d B%s"
           report.Spy.device_outbound_payload_bytes
           (if report.Spy.device_outbound_payload_bytes = 0 then
              " - nothing hidden leaks" else " - LEAK");
         Printf.sprintf "auditor: %s"
           (if verdict.Privacy.ok then "OK" else String.concat "; " verdict.Privacy.violations);
       ]
       @ List.map
           (fun (t, c, n) -> Printf.sprintf "value stream observed: %s.%s x%d" t c n)
           report.Spy.value_streams_observed)
    link_rows

(* ---- E5 baselines ---- *)

let baseline_compare ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let public = Ghost_db.public db in
  let q = Ghost_db.bind db Queries.demo in
  let ghost = Ghost_db.query db Queries.demo in
  let base = ghost.Exec.elapsed_us in
  let rows =
    [
      "GhostDB (SKT + climbing)";
      Report.us ghost.Exec.elapsed_us;
      Report.factor 1.0;
      string_of_int ghost.Exec.row_count;
    ]
    :: List.map
         (fun algo ->
            let r = Baseline.run algo cat public q in
            [
              Baseline.algorithm_name algo;
              Report.us r.Baseline.elapsed_us;
              Report.factor (r.Baseline.elapsed_us /. base);
              string_of_int r.Baseline.row_count;
            ])
         [ Baseline.Grace_hash; Baseline.Sort_merge ]
  in
  Report.make ~id:"E5" ~title:"GhostDB vs last-resort join algorithms (demo query)"
    ~header:[ "engine"; "exec time"; "slowdown"; "rows" ]
    ~notes:
      [
        "the paper (Section 4): computing SPJ queries with hash joins or classical \
         join indices under the device constraints is 'unacceptable'";
      ]
    rows

(* ---- E6 flash asymmetry ---- *)

let flash_asymmetry ?(scale = default_scale) () =
  let ratios = [ 1.; 3.; 5.; 10. ] in
  let rows =
    List.map
      (fun ratio ->
         (* 16 KiB of RAM so both baselines actually spill to Flash *)
         let config =
           { Device.default_config with
             Device.ram_budget = 16 * 1024;
             Device.flash_cost = Flash.cost_with_write_ratio ratio }
         in
         let db = make_db ~device_config:config scale in
         let cat = Ghost_db.catalog db in
         let public = Ghost_db.public db in
         let q = Ghost_db.bind db Queries.demo in
         let ghost = Ghost_db.query db Queries.demo in
         let hash = Baseline.run Baseline.Grace_hash cat public q in
         let merge = Baseline.run Baseline.Sort_merge cat public q in
         [
           Printf.sprintf "%.0fx" ratio;
           Report.us ghost.Exec.elapsed_us;
           Report.us hash.Baseline.elapsed_us;
           Report.us merge.Baseline.elapsed_us;
         ])
      ratios
  in
  Report.make ~id:"E6" ~title:"Sensitivity to Flash program/read cost ratio"
    ~header:[ "write/read"; "GhostDB"; "grace hash"; "sort merge" ]
    ~notes:
      [
        "GhostDB's read-only query path is insensitive; spill-heavy baselines degrade \
         with the write cost (Section 3: writes are 3-10x slower than reads)";
      ]
    rows

(* ---- E7 RAM sweep ---- *)

let ram_sweep ?(scale = Medical.scale_with_prescriptions 40_000) () =
  (* 8 KiB is the floor: a page-sized program buffer must fit the
     arena next to the working set. *)
  let budgets = [ 8 * 1024; 16 * 1024; 32 * 1024; 64 * 1024; 128 * 1024; 512 * 1024 ] in
  let sql = Queries.demo_with ~date_selectivity:0.6 () in
  let rows =
    List.map
      (fun budget ->
         let config = { Device.default_config with Device.ram_budget = budget } in
         let db = make_db ~device_config:config scale in
         let cat = Ghost_db.catalog db in
         let q = Ghost_db.bind db sql in
         let post = Ghost_db.run_plan db (Planner.all_post cat q) in
         let best = Ghost_db.query db sql in
         [
           Report.bytes budget;
           Report.us post.Exec.elapsed_us;
           string_of_int post.Exec.bloom_fp_candidates;
           Report.us best.Exec.elapsed_us;
           Report.bytes best.Exec.ram_peak;
         ])
      budgets
  in
  Report.make ~id:"E7" ~title:"Sensitivity to the secure chip's RAM budget"
    ~header:
      [ "RAM"; "all-Post time"; "bloom FPs absorbed"; "optimizer time"; "RAM peak" ]
    ~notes:
      [
        "smaller RAM -> smaller Bloom filters -> more false positives absorbed by the \
         exact verification join (never wrong results), and tighter merge fan-in";
      ]
    rows

(* ---- E8 USB sweep ---- *)

let usb_sweep ?(scale = default_scale) () =
  let speeds = [ 12.; 100.; 480. ] in
  let sql = Queries.demo_with ~date_selectivity:0.3 () in
  let rows =
    List.map
      (fun mbps ->
         let config = { Device.default_config with Device.usb_mbit_per_s = mbps } in
         let db = make_db ~device_config:config scale in
         let cat = Ghost_db.catalog db in
         let q = Ghost_db.bind db sql in
         let pre = Ghost_db.run_plan db (Planner.all_pre cat q) in
         let post = Ghost_db.run_plan db (Planner.all_post cat q) in
         [
           Printf.sprintf "%.0f Mbit/s" mbps;
           Report.us pre.Exec.elapsed_us;
           Report.us post.Exec.elapsed_us;
         ])
      speeds
  in
  Report.make ~id:"E8" ~title:"USB full speed vs high speed (Section 3)"
    ~header:[ "link"; "all-Pre time"; "all-Post time" ]
    ~notes:
      [ "shipping id lists and projection streams dominates at 12 Mbit/s; 480 Mbit/s \
         is the paper's 'future platforms' variant" ]
    rows

(* ---- E9 storage overhead ---- *)

let storage_overhead ?(scales = [ Medical.tiny; Medical.small ]) () =
  let rows =
    List.map
      (fun scale ->
         let db = make_db scale in
         let s = Ghost_db.storage db in
         let total =
           s.Catalog.base_bytes + s.Catalog.skt_bytes + s.Catalog.attr_index_bytes
           + s.Catalog.key_index_bytes
         in
         [
           string_of_int scale.Medical.prescriptions;
           Report.bytes s.Catalog.base_bytes;
           Report.bytes s.Catalog.skt_bytes;
           Report.bytes s.Catalog.attr_index_bytes;
           Report.bytes s.Catalog.key_index_bytes;
           Report.factor (Float.of_int total /. Float.of_int (max 1 s.Catalog.base_bytes));
         ])
      scales
  in
  Report.make ~id:"E9" ~title:"Flash storage: hidden base data vs index structures"
    ~header:
      [ "prescriptions"; "base data"; "SKTs"; "climbing idx"; "key idx"; "total/base" ]
    ~notes:
      [ "Section 4: the SKT + climbing-index benefit 'comes at an extra cost in terms \
         of Flash storage'" ]
    rows

(* ---- E10 scale sweep ---- *)

let scale_sweep ?(cardinalities = [ 1_000; 10_000; 50_000; 100_000 ]) () =
  let rows =
    List.map
      (fun n ->
         let scale = Medical.scale_with_prescriptions n in
         let db = make_db scale in
         let cat = Ghost_db.catalog db in
         let q = Ghost_db.bind db Queries.demo in
         let pre = Ghost_db.run_plan db (Planner.all_pre cat q) in
         let post = Ghost_db.run_plan db (Planner.all_post cat q) in
         let best = Ghost_db.query db Queries.demo in
         [
           string_of_int n;
           Report.us pre.Exec.elapsed_us;
           Report.us post.Exec.elapsed_us;
           Report.us best.Exec.elapsed_us;
           string_of_int best.Exec.row_count;
         ])
      cardinalities
  in
  Report.make ~id:"E10" ~title:"Execution time vs root-table cardinality (demo query)"
    ~header:[ "prescriptions"; "all-Pre"; "all-Post"; "optimizer"; "rows" ]
    ~notes:
      [ "the demo dataset has one million prescriptions; run with --full to include it" ]
    rows

(* ---- E11 inserts ---- *)

let insert_sweep ?(scale = default_scale) () =
  let module Rng = Ghost_kernel.Rng in
  let rows_for db rng n =
    Medical.new_prescriptions scale rng
      ~first:(Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1) n
  in
  let db = make_db scale in
  let rng = Rng.create 77 in
  let device = Ghost_db.device db in
  let query_time () = (Ghost_db.query db Queries.demo).Exec.elapsed_us in
  let base_query = query_time () in
  let rows =
    List.map
      (fun batch ->
         let t0 = Device.elapsed_us device in
         Ghost_db.insert db (rows_for db rng batch);
         let insert_us = Device.elapsed_us device -. t0 in
         let q = query_time () in
         let log = Catalog.delta (Ghost_db.catalog db) "Prescription" in
         let live, dead =
           match log with
           | Some l -> (Ghostdb.Delta_log.size_bytes l, Ghostdb.Delta_log.dead_bytes l)
           | None -> (0, 0)
         in
         [
           string_of_int batch;
           Report.us insert_us;
           Report.us (insert_us /. Float.of_int batch);
           string_of_int (Ghost_db.delta_count db);
           Report.us q;
           Report.factor (q /. base_query);
           Report.bytes live;
           Report.bytes dead;
         ])
      [ 10; 90; 400; 1500 ]
  in
  Report.make ~id:"E11" ~title:"Inserts: delta-log cost and query overhead"
    ~header:
      [ "batch"; "insert time"; "per row"; "delta rows"; "demo query"; "vs fresh";
        "log live"; "log dead" ]
    ~notes:
      [
        "new facts append to a Flash delta log (no in-place writes); queries scan it \
         next to the indexed structures until offline reorganization";
        "'log dead' is the write amplification of re-programming partial tail pages";
      ]
    rows

(* ---- E15 robustness: fault injection overhead ---- *)

let robustness ?(scale = default_scale) () =
  let module Rng = Ghost_kernel.Rng in
  let insert_rows db rng n =
    Medical.new_prescriptions scale rng
      ~first:(Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1) n
  in
  let flash_faults ~flip ~fail =
    Some { Flash.no_faults with
           Flash.fault_seed = 4242;
           read_flip_prob = flip;
           program_fail_prob = fail }
  in
  let usb_faults prob =
    Some { Device.default_usb_fault with Device.usb_seed = 777; corrupt_prob = prob }
  in
  let profiles =
    [
      ("fault-free", Device.default_config);
      ( "bit-rot + ECC",
        { Device.default_config with Device.flash_fault = flash_faults ~flip:0.02 ~fail:0. } );
      ( "worn blocks",
        { Device.default_config with Device.flash_fault = flash_faults ~flip:0. ~fail:0.02 } );
      ("lossy USB", { Device.default_config with Device.usb_fault = usb_faults 0.25 });
      ( "all faults",
        { Device.default_config with
          Device.flash_fault = flash_faults ~flip:0.02 ~fail:0.02;
          usb_fault = usb_faults 0.25 } );
    ]
  in
  let baseline = ref None in
  let rows =
    List.map
      (fun (name, config) ->
         let db = make_db ~device_config:config scale in
         let rng = Rng.create 31 in
         let device = Ghost_db.device db in
         let before = Device.snapshot device in
         let t0 = Device.elapsed_us device in
         (* one row per batch: about 300 log programs, so the worn
            blocks meet program failures *)
         List.iter (fun row -> Ghost_db.insert db [ row ]) (insert_rows db rng 300);
         let insert_us = Device.elapsed_us device -. t0 in
         let q = (Ghost_db.query db Queries.demo).Exec.elapsed_us in
         let total = insert_us +. q in
         (match !baseline with None -> baseline := Some total | Some _ -> ());
         let f =
           Device.diff_faults ~after:(Device.snapshot device).Device.faults
             ~before:before.Device.faults
         in
         [
           name;
           Report.us insert_us;
           Report.us q;
           Printf.sprintf "x%.2f" (total /. Option.get !baseline);
           string_of_int (Device.count f Device.Flash_ecc_corrected);
           string_of_int (Device.count f Device.Flash_ecc_uncorrected);
           string_of_int (Device.count f Device.Flash_pages_remapped);
           string_of_int (Device.count f Device.Flash_bad_blocks);
           string_of_int (Device.count f Device.Usb_retries);
         ])
      profiles
  in
  Report.make ~id:"E15" ~title:"Robustness: fault injection and recovery overhead"
    ~header:
      [ "profile"; "insert 300"; "demo query"; "vs fault-free"; "ecc fixed";
        "ecc uncorr"; "remapped"; "bad blk"; "usb retries" ]
    ~notes:
      [
        "fault injection is deterministic (seeded); the 'fault-free' row \
         injects nothing";
        "'insert 300' inserts the rows one per batch, so each one programs \
         a log page; every log page carries the 20-byte sealed header that \
         makes power-cut recovery possible";
        "ECC corrections, page remaps and USB retransmissions are all metered \
         on the simulated clock, so the overhead factors are end-to-end";
      ]
    rows

(* ---- E16 shared page cache: frame-count sweep ---- *)

let page_cache_sweep ?metrics ?(scale = default_scale) () =
  let module Page_cache = Ghost_device.Page_cache in
  let attach db =
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics
  in
  let page = Device.default_config.Device.flash_geometry.Flash.page_size in
  (* Hidden-predicate COUNT queries: nearly all their time is
     device-side Flash traffic — climbing-index directory probes,
     id-list decoding, hidden-column checks; their index-only plans read
     no SKT row — while USB carries only the query text and a one-row
     result. That isolates what the buffer manager can save. *)
  let queries =
    [
      "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 8 AND 10";
      "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
       'Sclerosis' AND Vis.VisID = Pre.VisID";
      "SELECT COUNT(*) FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
       Pat.BodyMassIndex >= 35.0 AND Vis.PatID = Pat.PatID AND Pre.VisID = \
       Vis.VisID";
    ]
  in
  let baseline = ref None in
  let rows =
    List.map
      (fun frames ->
         (* The frame pool is charged to device RAM for the device's
            lifetime, so the budget grows by exactly the pool: every
            row runs its queries with the same free RAM. *)
         let config =
           { Device.default_config with
             Device.page_cache_frames = frames;
             Device.ram_budget =
               Device.default_config.Device.ram_budget + (frames * page) }
         in
         let db = make_db ~device_config:config scale in
         attach db;
         let device = Ghost_db.device db in
         let run_round () =
           List.iter (fun sql -> ignore (Ghost_db.query db sql)) queries
         in
         (* Warm-up round: populates the cache (discarded), so the
            table reports steady-state behaviour. *)
         run_round ();
         let before = Device.snapshot device in
         run_round ();
         run_round ();
         let u =
           Device.usage_between device ~before ~after:(Device.snapshot device)
         in
         Ghost_db.flush_metrics db;
         let c = u.Device.cache in
         (match !baseline with
          | None -> baseline := Some u.Device.total_us
          | Some _ -> ());
         let accesses = c.Page_cache.hits + c.Page_cache.misses in
         let hit_pct =
           if accesses = 0 then "-"
           else
             Printf.sprintf "%.0f%%"
               (100. *. Float.of_int c.Page_cache.hits /. Float.of_int accesses)
         in
         [
           (if frames = 0 then "off" else string_of_int frames);
           Report.bytes (frames * page);
           Report.us u.Device.total_us;
           Report.us u.Device.flash_us;
           string_of_int u.Device.flash_page_reads;
           string_of_int c.Page_cache.hits;
           string_of_int c.Page_cache.misses;
           string_of_int c.Page_cache.evictions;
           hit_pct;
           Printf.sprintf "x%.1f" (Option.get !baseline /. u.Device.total_us);
         ])
      [ 0; 4; 16; 64 ]
  in
  Report.make ~id:"E16"
    ~title:"Shared page cache: device time vs frame-pool size"
    ~header:
      [ "frames"; "pool"; "device time"; "flash time"; "page reads"; "hit";
        "miss"; "evict"; "hit%"; "vs off" ]
    ~notes:
      [
        "two measured rounds of three hidden-predicate COUNT queries after one \
         warm-up round; clock/second-chance eviction over full-page frames";
        "frames=0 disables the cache entirely: that row is bit-identical to the \
         cache-free simulator";
        "each row's RAM budget grows by exactly its frame pool, so all rows run \
         with the same free RAM";
        "a hit is a RAM blit (zero Flash time); a miss reads one whole page \
         into the victim frame, so a tiny pool can lose on streaming patterns \
         before the pool covers the hot set";
      ]
    rows

(* ---- E17 journaled reorganization: rebuild cost + recovery time ---- *)

let reorg_cost ?metrics ?(scale = default_scale) () =
  let module Rng = Ghost_kernel.Rng in
  let attach db =
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics
  in
  (* A database carrying [pending] inserted rows plus pending/10
     deletes, deterministic per log size. *)
  let build pending =
    let db = make_db scale in
    let rng = Rng.create 51 in
    Ghost_db.insert db
      (Medical.new_prescriptions scale rng
         ~first:(Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1) pending);
    let doomed =
      List.init (max 1 (pending / 10)) (fun i ->
        1 + ((i * 37) mod scale.Medical.prescriptions))
      |> List.sort_uniq compare
    in
    Ghost_db.delete db doomed;
    (db, List.length doomed)
  in
  let rows =
    List.map
      (fun pending ->
         (* 1. uninterrupted journaled rebuild; cost lands on the old
            device's clock (snapshot reads + journal appends) *)
         let db, tombs = build pending in
         attach db;
         let device = Ghost_db.device db in
         let t0 = Device.elapsed_us device in
         let rebuilt = Ghost_db.reorganize db in
         let reorg_us = Device.elapsed_us device -. t0 in
         Ghost_db.flush_metrics db;
         Ghost_db.flush_metrics rebuilt;
         let ckpts =
           Device.count (Device.fault_counters device) Device.Reorg_checkpoints
         in
         (* 2. a cut tearing the Begin record: recovery rolls back *)
         let db, _ = build pending in
         attach db;
         let device = Ghost_db.device db in
         Flash.arm_power_cut (Device.flash device) ~after_programs:1;
         (try ignore (Ghost_db.reorganize db) with Flash.Power_cut _ -> ());
         let t0 = Device.elapsed_us device in
         ignore (Ghost_db.recover db);
         let rollback_us = Device.elapsed_us device -. t0 in
         Ghost_db.flush_metrics db;
         (* 3. a cut after the snapshot checkpoint: recovery rolls
            forward, reusing the journaled snapshot phase *)
         let db, _ = build pending in
         attach db;
         let device = Ghost_db.device db in
         Flash.arm_power_cut (Device.flash device) ~after_programs:3;
         (try ignore (Ghost_db.reorganize db) with Flash.Power_cut _ -> ());
         let t0 = Device.elapsed_us device in
         let r = Ghost_db.recover db in
         let rollfwd_us = Device.elapsed_us device -. t0 in
         Ghost_db.flush_metrics db;
         let reused, redone =
           match r.Ghost_db.reorg with
           | Some
               (Ghost_db.Reorg_completed { db = db'; phases_reused; phases_redone })
             ->
             Ghost_db.flush_metrics db';
             (phases_reused, phases_redone)
           | _ -> (0, 0)
         in
         [
           string_of_int pending;
           string_of_int tombs;
           string_of_int (ckpts + 2);
           Report.us reorg_us;
           Report.us rollback_us;
           Report.us rollfwd_us;
           Printf.sprintf "%d/%d" reused redone;
         ])
      [ 50; 150; 300 ]
  in
  Report.make ~id:"E17"
    ~title:"Reorganization: journaled rebuild cost and recovery time vs log size"
    ~header:
      [ "delta rows"; "tombstones"; "journal pages"; "rebuild"; "roll-back";
        "roll-forward"; "reused/redone" ]
    ~notes:
      [
        "the rebuild runs as a checkpointed shadow build: Begin + one \
         checkpoint per phase + Commit, each one CRC-stamped page on the old \
         device's Flash ('journal pages' counts them)";
        "'roll-back' recovers from a cut that tore the Begin record (nothing \
         durable yet: the pre-reorg image stays live); 'roll-forward' from a \
         cut right after the snapshot checkpoint (completed phases are reused, \
         the rest re-run)";
        "all times are the old device's simulated clock: snapshot reads, \
         journal appends and the recovery scan; the shadow build's programs \
         land on the new device";
      ]
    rows

(* ---- E12 lifecycle: deletes + reorganization ---- *)

let lifecycle ?(scale = default_scale) () =
  let module Rng = Ghost_kernel.Rng in
  let rng = Rng.create 99 in
  let db = ref (make_db scale) in
  let demo_time () = (Ghost_db.query !db Queries.demo).Exec.elapsed_us in
  let fresh = demo_time () in
  let insert n =
    Ghost_db.insert !db
      (Medical.new_prescriptions scale rng
         ~first:(Catalog.total_count (Ghost_db.catalog !db) "Prescription" + 1) n)
  in
  let delete n =
    (* delete random live loaded rows *)
    let cat = Ghost_db.catalog !db in
    let victims = ref [] in
    while List.length !victims < n do
      let id = 1 + Rng.int rng (Catalog.table_count cat "Prescription") in
      let dead =
        match Catalog.tombstone cat "Prescription" with
        | Some log -> Ghostdb.Tombstone_log.mem log id
        | None -> false
      in
      if (not dead) && not (List.mem id !victims) then victims := id :: !victims
    done;
    Ghost_db.delete !db !victims
  in
  let device () = Ghost_db.device !db in
  let step label f =
    let t0 = Device.elapsed_us (device ()) in
    f ();
    let op_us = Device.elapsed_us (device ()) -. t0 in
    let q = demo_time () in
    [
      label;
      Report.us op_us;
      string_of_int (Ghost_db.delta_count !db);
      string_of_int (Ghost_db.tombstone_count !db);
      Report.us q;
      Report.factor (q /. fresh);
    ]
  in
  (* build sequentially: each step mutates the instance *)
  let r0 = step "load (fresh)" (fun () -> ()) in
  let r1 = step "insert 500" (fun () -> insert 500) in
  let r2 = step "delete 300" (fun () -> delete 300) in
  let r3 = step "insert 500" (fun () -> insert 500) in
  let r4 =
    (* the snapshot's reads and the journal's programs land on the OLD
       device's clock *)
    let old_device = device () in
    let t0 = Device.elapsed_us old_device in
    db := Ghost_db.reorganize !db;
    let op_us = Device.elapsed_us old_device -. t0 in
    let q = demo_time () in
    [
      "reorganize";
      Report.us op_us;
      string_of_int (Ghost_db.delta_count !db);
      string_of_int (Ghost_db.tombstone_count !db);
      Report.us q;
      Report.factor (q /. fresh);
    ]
  in
  let rows = [ r0; r1; r2; r3; r4 ] in
  Report.make ~id:"E12" ~title:"Lifecycle: inserts, deletes, reorganization"
    ~header:[ "step"; "op time"; "delta"; "tombstones"; "demo query"; "vs fresh" ]
    ~notes:
      [
        "the delta/tombstone tax accumulates until the offline reorganization \
         (secure-setting reload) folds the logs back into the indexed structures";
        "'op time' for reorganize is what the old device's clock pays: the \
         snapshot's reads and the journal's programs (the shadow build's \
         programs reach no clock)";
      ]
    rows

(* ---- E13 optimizer calibration ---- *)

(* Spearman rank correlation between two float series. *)
let spearman xs ys =
  let rank arr =
    let idx = Array.mapi (fun i v -> (v, i)) arr in
    Array.sort compare idx;
    let r = Array.make (Array.length arr) 0. in
    Array.iteri (fun pos (_, i) -> r.(i) <- Float.of_int pos) idx;
    r
  in
  let rx = rank xs and ry = rank ys in
  let n = Float.of_int (Array.length xs) in
  if n < 2. then 1.
  else begin
    let d2 =
      Array.fold_left ( +. ) 0.
        (Array.mapi (fun i x -> (x -. ry.(i)) ** 2.) rx)
    in
    1. -. (6. *. d2 /. (n *. ((n *. n) -. 1.)))
  end

let optimizer_calibration ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let rows =
    List.filter_map
      (fun (name, sql) ->
         let panel = Planner.with_estimates cat (Ghost_db.bind db sql) in
         if List.length panel < 2 then None
         else begin
           let est = Array.of_list (List.map (fun (_, e) -> e.Cost.est_time_us) panel) in
           let meas =
             Array.of_list
               (List.map (fun (p, _) -> (Ghost_db.run_plan db p).Exec.elapsed_us) panel)
           in
           let rho = spearman est meas in
           let log_ratio =
             Array.fold_left ( +. ) 0.
               (Array.mapi (fun i e -> Float.abs (log (e /. meas.(i)))) est)
             /. Float.of_int (Array.length est)
           in
           let picked = meas.(0) in
           let best = Array.fold_left Float.min infinity meas in
           Some
             [
               name;
               string_of_int (Array.length est);
               Printf.sprintf "%.2f" rho;
               Printf.sprintf "%.2fx" (exp log_ratio);
               Printf.sprintf "%.2fx" (picked /. best);
             ]
         end)
      Queries.all
  in
  Report.make ~id:"E13" ~title:"Optimizer calibration: estimates vs simulated times"
    ~header:
      [ "query"; "plans"; "rank corr"; "mean |est/meas|"; "pick vs best" ]
    ~notes:
      [
        "rank correlation ~1.0 means the cost model orders the panel like the \
         simulator does; 'pick vs best' is the regret of trusting the estimate";
      ]
    rows

(* ---- E14 second workload (corporate/retail) ---- *)

let retail_workload () =
  let module Retail = Ghost_workload.Retail in
  let db = Ghost_db.of_schema (Retail.schema ()) (Retail.generate Retail.small) in
  let cat = Ghost_db.catalog db in
  Ghost_db.clear_trace db;
  let rows =
    List.map
      (fun (name, sql) ->
         let q = Ghost_db.bind db sql in
         let pre = Ghost_db.run_plan db (Planner.all_pre cat q) in
         let post = Ghost_db.run_plan db (Planner.all_post cat q) in
         let best_plan, _ = Planner.best cat q in
         let best = Ghost_db.run_plan db best_plan in
         [
           name;
           Report.us pre.Exec.elapsed_us;
           Report.us post.Exec.elapsed_us;
           Report.us best.Exec.elapsed_us;
           string_of_int best.Exec.row_count;
         ])
      Retail.queries
  in
  let verdict = Ghostdb.Privacy.audit (Ghost_db.trace db) in
  Report.make ~id:"E14"
    ~title:"Second workload: corporate catalog with hidden margins (retail tree)"
    ~header:[ "query"; "all-Pre"; "all-Post"; "optimizer"; "rows" ]
    ~notes:
      [
        "a different tree shape (LineItem -> Purchase -> Customer chain + flat \
         Product) with inverted cardinality ratios; nothing is tuned to Figure 3";
        Printf.sprintf "privacy auditor across the whole workload: %s"
          (if verdict.Ghostdb.Privacy.ok then "OK" else "VIOLATION");
      ]
    rows

(* ---- E18 multi-session scheduler: throughput + tail latency ---- *)

(* The interactive-plus-analyst mix of E18, E19 and E22: three sub-10ms
   point/join queries and the suite's two full-scan analytical queries
   (~25x and ~165x the lightest). The full suite's mid-weight joins
   (~30ms) are left out on purpose: they are frequent enough under any
   Zipf skew to land inside E18's p95 window, where a preemptive policy
   charges them N times their service time and drowns the convoy
   signal. *)
let interactive_analyst_mix =
  List.filter
    (fun (name, _) ->
       List.mem name
         [ "single_table_visible"; "demo"; "doctor_patient"; "range_hidden"; "visible_only" ])
    Queries.all

let sched_throughput ?metrics ?(scale = default_scale) () =
  let module Scheduler = Ghost_sched.Scheduler in
  let module Driver = Ghost_sched.Workload_driver in
  (* With a clean light/heavy gap, theta 2.5 gives the heavy tail ~4%
     of the mass, so p95 measures what FIFO does to the many light
     queries queued behind a rare analytical scan, not the scans
     themselves. *)
  let mix = interactive_analyst_mix in
  let spec clients =
    { Driver.default_spec with
      Driver.clients; queries_per_client = 12; theta = 2.5; mix }
  in
  (* FIFO with an infinite quantum is the serial baseline (a finite
     quantum would change nothing: FIFO never switches). The preemptive
     policies slice at 500 simulated microseconds — small against even
     the lightest query, so light queries overtake heavy ones. *)
  let run_cell clients policy =
    let db = make_db scale in
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics;
    let quantum_us =
      match policy with Scheduler.Fifo -> infinity | _ -> 500.
    in
    let s = Driver.run ~policy ~quantum_us db (spec clients) in
    Ghost_db.flush_metrics db;
    s
  in
  let rows =
    List.concat_map
      (fun clients ->
         let cells =
           List.map
             (fun p -> run_cell clients p)
             [ Scheduler.Fifo; Scheduler.Round_robin; Scheduler.Cost_based ]
         in
         let fifo_p95 =
           (List.hd cells).Driver.latency_p95_us
         in
         List.map
           (fun (s : Driver.summary) ->
              [
                string_of_int clients;
                Scheduler.policy_name s.Driver.policy;
                string_of_int s.Driver.completed;
                Report.us s.Driver.makespan_us;
                Printf.sprintf "%.1f" s.Driver.throughput_qps;
                Report.us s.Driver.latency_p50_us;
                Report.us s.Driver.latency_p95_us;
                Report.us s.Driver.latency_max_us;
                Report.factor (fifo_p95 /. s.Driver.latency_p95_us);
              ])
           cells)
      [ 1; 2; 4; 8 ]
  in
  Report.make ~id:"E18"
    ~title:"Multi-session scheduler: throughput and tail latency vs policy"
    ~header:
      [ "clients"; "policy"; "done"; "makespan"; "q/s"; "p50"; "p95"; "max";
        "p95 vs fifo" ]
    ~notes:
      [
        "closed loop: each client keeps one query in flight (no think time); \
         mix = three interactive queries plus the two analytical scans, \
         ranked cheapest-first, Zipf theta 2.5, so a scan is a rare (~4%) \
         event; every session reserves a fair share of the RAM arena";
        "fifo runs each session to completion (serial baseline); round-robin \
         and cost-based (shortest remaining estimate first) preempt every \
         500 us of simulated device time";
        "latency = completion - submission on the device clock; under fifo a \
         rare heavy query convoys every light query behind it, which is what \
         the p95 column pays for";
        "admission control reserves each session's working RAM before \
         dispatch, so concurrency never over-commits the 64 KiB arena";
      ]
    rows

(* ---- E19 fault-tolerant device fleet: scaling + availability ---- *)

let fleet_scaling ?metrics ?(scale = default_scale)
    ?(shard_counts = [ 1; 2; 4; 8 ]) () =
  let module Metrics = Ghost_metrics.Metrics in
  let module Fleet = Ghost_fleet.Fleet in
  let module Driver = Ghost_fleet.Fleet_driver in
  (* The E18 mix, so the single-shard row is directly comparable to
     the single-device scheduler numbers. Two of the five queries touch
     dimension tables only and route to one shard; the rest scatter to
     every shard and merge. *)
  let mix = interactive_analyst_mix in
  let schema = Medical.schema () in
  let data = Medical.generate scale in
  let spec clients =
    { Driver.default_spec with Driver.clients; queries_per_client = 3;
      theta = 1.1; mix }
  in
  (* Unplug shard 0's first replica early in the run, while every
     client still has queries in flight. *)
  let kill_spec =
    { Driver.kill_at_us = 2_000.; kill_shard = 0; kill_replica = 0 }
  in
  let fault_shards =
    List.nth shard_counts (min 2 (List.length shard_counts - 1))
  in
  let cells =
    List.map (fun n -> (n, 1, false)) shard_counts
    @ [ (fault_shards, 2, false); (fault_shards, 2, true);
        (fault_shards, 1, true) ]
  in
  let run_cell (n, r, kill) =
    let fleet =
      Fleet.create ~topology:{ Fleet.shards = n; replicas = r } schema data
    in
    Option.iter (fun m -> Fleet.set_metrics fleet (Some m)) metrics;
    let kills = if kill then [ kill_spec ] else [] in
    let clients = 8 * n in
    let s = Driver.run ~kills fleet (spec clients) in
    Fleet.flush_metrics fleet;
    let verdict = Fleet.audit fleet in
    Option.iter
      (fun m ->
         let tag =
           Printf.sprintf "fleet.s%d.r%d%s" n r (if kill then ".kill" else "")
         in
         Metrics.incr m (tag ^ ".completed") ~by:s.Driver.completed;
         Metrics.incr m (tag ^ ".partial") ~by:s.Driver.partial;
         Metrics.incr m (tag ^ ".failovers") ~by:s.Driver.failovers;
         Metrics.incr m (tag ^ ".hedges") ~by:s.Driver.hedges;
         Metrics.add_gauge m (tag ^ ".makespan_us") s.Driver.makespan_us;
         Metrics.add_gauge m (tag ^ ".latency_p95_us") s.Driver.latency_p95_us)
      metrics;
    [
      string_of_int n;
      string_of_int r;
      string_of_int clients;
      (if kill then
         Printf.sprintf "kill (%d,%d)" kill_spec.Driver.kill_shard
           kill_spec.Driver.kill_replica
       else "none");
      string_of_int s.Driver.completed;
      string_of_int s.Driver.partial;
      string_of_int s.Driver.failovers;
      string_of_int s.Driver.hedges;
      Report.us s.Driver.makespan_us;
      Printf.sprintf "%.1f" s.Driver.throughput_qps;
      Report.us s.Driver.latency_p95_us;
      Printf.sprintf "%.3f" s.Driver.availability;
      (if verdict.Privacy.ok then "ok" else "VIOLATION");
    ]
  in
  let rows = List.map run_cell cells in
  Report.make ~id:"E19"
    ~title:"Fault-tolerant device fleet: scaling and availability under failure"
    ~header:
      [ "shards"; "R"; "clients"; "fault"; "done"; "partial"; "failover";
        "hedge"; "makespan"; "q/s"; "p95"; "avail"; "audit" ]
    ~notes:
      [
        "closed loop at 8 clients per shard: the root (Prescription) table is \
         range-partitioned across the shards, dimension tables replicated \
         everywhere; scatter sub-queries run through one scheduler per \
         device and the untrusted terminal merges the sorted outputs";
        "the scaling rows (fault = none, R = 1) chart throughput as devices \
         are added; the makespan column is the global simulated clock, so \
         near-flat makespan under 8x the offered load is the win";
        "kill rows unplug a device mid-run: with R = 2 every affected \
         sub-query fails over to the surviving replica and zero queries are \
         lost; with R = 1 the affected queries degrade to partials tagged \
         with the dead shard (the partial and avail columns)";
        "hedges count sub-queries cancelled past their deadline-derived \
         straggler budget and re-issued on a replica";
        "audit runs the single-device privacy auditor over every device's \
         boundary trace; the merge layer only handles data the spy model \
         already concedes (visible columns and root-id lists)";
      ]
    rows

(* ---- Ablations ---- *)

let ablation_exact_post ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let sql = Queries.demo_with ~date_selectivity:0.4 () in
  let q = Ghost_db.bind db sql in
  let plan = Planner.all_post cat q in
  let rows =
    List.map
      (fun (label, exact, fpr) ->
         let r = Ghost_db.run_plan db ~exact_post:exact ~bloom_fpr:fpr plan in
         [
           label;
           Report.us r.Exec.elapsed_us;
           string_of_int r.Exec.row_count;
           string_of_int r.Exec.bloom_fp_candidates;
         ])
      [
        ("exact, fpr 1%", true, 0.01);
        ("exact, fpr 30%", true, 0.3);
        ("approximate, fpr 1%", false, 0.01);
        ("approximate, fpr 30%", false, 0.3);
      ]
  in
  Report.make ~id:"A1" ~title:"Ablation: exact verification of Bloom post-filters"
    ~header:[ "mode"; "time"; "rows"; "FPs absorbed" ]
    ~notes:
      [
        "approximate mode skips the verification join: faster, but Bloom false \
         positives can reach the result (row counts may exceed the exact answer)";
      ]
    rows

let ablation_bloom_fpr ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let sql = Queries.demo_with ~date_selectivity:0.5 () in
  let q = Ghost_db.bind db sql in
  let plan = Planner.all_post cat q in
  let rows =
    List.map
      (fun fpr ->
         let r = Ghost_db.run_plan db ~bloom_fpr:fpr plan in
         [
           Printf.sprintf "%.3f" fpr;
           Report.us r.Exec.elapsed_us;
           Report.bytes r.Exec.ram_peak;
           string_of_int r.Exec.bloom_fp_candidates;
         ])
      [ 0.001; 0.01; 0.1; 0.3 ]
  in
  Report.make ~id:"A2" ~title:"Ablation: Bloom filter target false-positive rate"
    ~header:[ "target fpr"; "time"; "RAM peak"; "FPs absorbed" ]
    ~notes:
      [ "looser filters need less RAM but admit candidates the verification join must \
         reject" ]
    rows

let ablation_hidden_fk_indexes ?(scale = default_scale) () =
  let sql =
    "SELECT Pre.PreID FROM Prescription Pre, Visit Vis WHERE Vis.DocID = 3 AND \
     Pre.VisID = Vis.VisID"
  in
  let rows =
    List.map
      (fun indexed ->
         let db =
           Ghost_db.of_schema ~index_hidden_fks:indexed (Medical.schema ())
             (Medical.generate scale)
         in
         let r = Ghost_db.query db sql in
         let s = Ghost_db.storage db in
         [
           (if indexed then "indexed" else "column check");
           Report.us r.Exec.elapsed_us;
           Report.bytes s.Catalog.attr_index_bytes;
           string_of_int r.Exec.row_count;
         ])
      [ false; true ]
  in
  Report.make ~id:"A3"
    ~title:"Ablation: climbing indexes on hidden foreign-key columns"
    ~header:[ "hidden FKs"; "query time"; "climbing idx bytes"; "rows" ]
    ~notes:
      [ "a selection on a hidden FK (Vis.DocID = 3) either traverses a dedicated \
         climbing index or falls back to per-candidate column checks" ]
    rows

let ablation_deep_cross ?(scale = default_scale) () =
  let db = make_db scale in
  let cat = Ghost_db.catalog db in
  let sql =
    "SELECT Pre.PreID, Pat.Age FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
     Vis.Date > '2005-01-01' AND Pat.BodyMassIndex >= 35.0 AND Pre.VisID = \
     Vis.VisID AND Vis.PatID = Pat.PatID"
  in
  let q = Ghost_db.bind db sql in
  let deep =
    List.filter
      (fun (p, _) -> List.exists (fun g -> g.Plan.g_borrowed <> []) p.Plan.groups)
      (Planner.with_estimates cat q)
  in
  let named =
    [ ("plain Pre", Planner.all_pre cat q); ("plain Post", Planner.all_post cat q) ]
    @ (match deep with
       | (p, _) :: _ -> [ ("deep Cross (borrowed)", p) ]
       | [] -> [])
  in
  let rows =
    List.map
      (fun (name, plan) ->
         let r = Ghost_db.run_plan db plan in
         [
           name;
           Report.us r.Exec.elapsed_us;
           string_of_int r.Exec.row_count;
           plan.Plan.label;
         ])
      named
  in
  Report.make ~id:"A5"
    ~title:"Ablation: deep Cross-filtering (borrowed descendant index lists)"
    ~header:[ "plan"; "time"; "rows"; "strategy" ]
    ~notes:
      [
        "visible predicate on the intermediate Visit table + hidden predicate on its \
         descendant Patient: borrowing Patient's Visit-level list shrinks the climb \
         (Section 4's cross-level selectivity combination)";
      ]
    rows

let ablation_skew ?(scale = default_scale) () =
  let rows =
    List.map
      (fun theta ->
         let db =
           Ghost_db.of_schema (Medical.schema ())
             (Medical.generate { scale with Medical.theta })
         in
         let r = Ghost_db.query db Queries.demo in
         let best_label =
           (fst (Planner.best (Ghost_db.catalog db) (Ghost_db.bind db Queries.demo)))
             .Plan.label
         in
         [
           Printf.sprintf "%.1f" theta;
           Report.us r.Exec.elapsed_us;
           string_of_int r.Exec.row_count;
           best_label;
         ])
      [ 0.0; 0.8; 1.2 ]
  in
  Report.make ~id:"A4" ~title:"Ablation: value-frequency skew (Zipf theta)"
    ~header:[ "theta"; "optimizer time"; "rows"; "chosen plan" ]
    ~notes:
      [ "skew moves predicate selectivities, which moves the Pre/Post choice" ]
    rows

(* ---- E20 wire formats: verbose vs compact framing ---- *)

let wire_formats ?metrics ?(scale = default_scale) () =
  let module Wire = Device.Wire in
  let attach db =
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics
  in
  let sql = Queries.demo_with ~date_selectivity:0.3 () in
  (* verbose totals per (speed, plan), filled by the Verbose pass and
     read back by the Compact pass for the ratio columns *)
  let baselines : (string, int * float) Hashtbl.t = Hashtbl.create 8 in
  let rows =
    List.concat_map
      (fun fmt ->
         List.concat_map
           (fun mbps ->
              let config =
                { Device.default_config with
                  Device.wire_format = fmt;
                  usb_mbit_per_s = mbps }
              in
              let db = make_db ~device_config:config scale in
              attach db;
              let cat = Ghost_db.catalog db in
              let q = Ghost_db.bind db sql in
              let device = Ghost_db.device db in
              let plans =
                [
                  ("Pre", Planner.all_pre cat q);
                  ("Post", Planner.all_post cat q);
                  ("Cross", Planner.cross cat q);
                ]
              in
              let rows =
                List.map
                  (fun (label, plan) ->
                     let before = Device.snapshot device in
                     let r = Ghost_db.run_plan db plan in
                     let after = Device.snapshot device in
                     let bytes =
                       after.Device.usb_bytes_in - before.Device.usb_bytes_in
                       + after.Device.usb_bytes_out - before.Device.usb_bytes_out
                     in
                     let est = (Cost.estimate cat plan).Cost.est_usb_bytes in
                     let key = Printf.sprintf "%.0f/%s" mbps label in
                     let vs_verbose =
                       match fmt with
                       | Wire.Verbose ->
                         Hashtbl.replace baselines key (bytes, r.Exec.elapsed_us);
                         ("x1.0", "x1.0")
                       | Wire.Compact ->
                         (match Hashtbl.find_opt baselines key with
                          | Some (vb, vus) ->
                            ( Printf.sprintf "x%.1f" (Float.of_int vb /. Float.of_int bytes),
                              Printf.sprintf "x%.2f" (vus /. r.Exec.elapsed_us) )
                          | None -> ("-", "-"))
                     in
                     [
                       Wire.format_name fmt;
                       Printf.sprintf "%.0f Mbit/s" mbps;
                       label;
                       Report.bytes bytes;
                       Report.bytes est;
                       Report.us r.Exec.elapsed_us;
                       fst vs_verbose;
                       snd vs_verbose;
                     ])
                  plans
              in
              Ghost_db.flush_metrics db;
              rows)
           [ 12.; 480. ])
      [ Wire.Verbose; Wire.Compact ]
  in
  Report.make ~id:"E20" ~title:"Wire formats: verbose vs compact USB framing"
    ~header:
      [ "format"; "link"; "plan"; "USB bytes"; "est bytes"; "device time";
        "bytes cut"; "speedup" ]
    ~notes:
      [
        "compact = interned opcodes + varint-delta id lists + zigzag-varint \
         values + coalesced CRC-framed transfers; verbose = the seed's \
         fixed-width per-message framing (bit-identical byte counts); the \
         result rows take the display link's one compact codec under both";
        "the byte cut is sharpest where data messages dominate the query \
         text; the latency win tracks the byte cut at 12 Mbit/s and fades at \
         480 Mbit/s where the per-transfer latency floor takes over";
        "'est bytes' is the cost model's per-encoding prediction \
         (Wire.est_id_list_bytes / est_value_stream_bytes / est_rows_bytes) \
         for the same plan";
      ]
    rows

(* ---- E21 end-to-end integrity: detection, scrubbing, fleet repair ---- *)

let integrity_sweep ?metrics ?(scale = default_scale) () =
  let module Metrics = Ghost_metrics.Metrics in
  let module Fleet = Ghost_fleet.Fleet in
  let module Scrub = Ghost_scrub.Scrub in
  let module Rng = Ghost_kernel.Rng in
  let queries =
    [
      "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN 8 AND 10";
      "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
       'Sclerosis' AND Vis.VisID = Pre.VisID";
    ]
  in
  let page = Device.default_config.Device.flash_geometry.Flash.page_size in
  (* CRC verification overhead, priced on the E16 hot-cache workload:
     same queries, warm cache, verify_pages off vs on. The frames = 0
     variant prices the worst case — every structure read misses, so
     every one pays the full-page verified read. *)
  let hot_cache_us ~frames verify =
    let config =
      { Device.default_config with
        Device.verify_pages = verify;
        page_cache_frames = frames;
        ram_budget = Device.default_config.Device.ram_budget + (frames * page) }
    in
    let db = make_db ~device_config:config scale in
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics;
    let device = Ghost_db.device db in
    let round () = List.iter (fun sql -> ignore (Ghost_db.query db sql)) queries in
    round ();
    let t0 = Device.elapsed_us device in
    round ();
    round ();
    Ghost_db.flush_metrics db;
    Device.elapsed_us device -. t0
  in
  let plain_us = hot_cache_us ~frames:16 false in
  let verified_us = hot_cache_us ~frames:16 true in
  let plain_cold_us = hot_cache_us ~frames:0 false in
  let verified_cold_us = hot_cache_us ~frames:0 true in
  let reference =
    let db = make_db scale in
    List.map (fun sql -> (Ghost_db.query db sql).Exec.rows) queries
  in
  let schema = Medical.schema () in
  let data = Medical.generate scale in
  let shards = 2 in
  let config = { Device.default_config with Device.verify_pages = true } in
  let run_cell (rate, scrub, replicas) =
    let fleet =
      Fleet.create ~device_config:config
        ~topology:{ Fleet.shards; replicas }
        schema data
    in
    Option.iter (fun m -> Fleet.set_metrics fleet (Some m)) metrics;
    (* Latent corruption on shard 0's first replica: a seeded sample of
       its structure pages, alternating one-bit decays (ECC-correctable
       — the scrubber's refresh target) and two-bit corruptions (past
       single-bit ECC: only the CRC trailer catches them). *)
    let victim = Fleet.db fleet ~shard:0 ~replica:0 in
    let flash = Device.flash (Ghost_db.device victim) in
    let s_pages =
      Array.of_list (Catalog.structure_pages (Ghost_db.catalog victim))
    in
    let n = Array.length s_pages in
    let hit = min n (max 1 (int_of_float (Float.round (rate *. float_of_int n)))) in
    let rng = Rng.create 97 in
    let sampled = Hashtbl.create hit in
    while Hashtbl.length sampled < hit do
      Hashtbl.replace sampled s_pages.(Rng.int rng n) ()
    done;
    let chosen =
      List.sort compare (Hashtbl.fold (fun p () acc -> p :: acc) sampled [])
    in
    let bits = page * 8 in
    let decayed = ref 0 and corrupted = ref 0 in
    List.iteri
      (fun i p ->
         let b = Rng.int rng bits in
         Flash.corrupt_stored flash ~page:p ~bit:b;
         if i mod 2 = 0 then incr decayed
         else begin
           Flash.corrupt_stored flash ~page:p ~bit:((b + 7) mod bits);
           incr corrupted
         end)
      chosen;
    let refreshed = ref 0 and scrub_corrupt = ref 0 in
    if scrub then
      for s = 0 to shards - 1 do
        for r = 0 to replicas - 1 do
          let db = Fleet.db fleet ~shard:s ~replica:r in
          let sc =
            Scrub.create (Ghost_db.device db)
              ~pages:(Catalog.structure_pages (Ghost_db.catalog db))
          in
          Scrub.run_pending sc;
          let p = Scrub.progress sc in
          refreshed := !refreshed + p.Scrub.refreshed;
          scrub_corrupt := !scrub_corrupt + List.length p.Scrub.corrupt
        done
      done;
    let run_queries () =
      List.map2
        (fun sql expected ->
           let r = Fleet.query fleet sql in
           if not r.Fleet.complete then `Failed
           else if r.Fleet.rows <> expected then `Wrong
           else `Ok)
        queries reference
    in
    let count tag l = List.length (List.filter (fun x -> x = tag) l) in
    let first = run_queries () in
    let detected =
      let total = ref !scrub_corrupt in
      for s = 0 to shards - 1 do
        for r = 0 to replicas - 1 do
          let d = Ghost_db.device (Fleet.db fleet ~shard:s ~replica:r) in
          total :=
            !total + Device.count (Device.fault_counters d) Device.Integrity_errors
        done
      done;
      !total
    in
    let repairs = Fleet.anti_entropy fleet in
    let repaired =
      List.length (List.filter (fun r -> r.Fleet.rr_repaired) repairs)
    in
    let repair_us =
      List.fold_left (fun a r -> a +. r.Fleet.rr_repair_us) 0. repairs
    in
    let after = run_queries () in
    Fleet.flush_metrics fleet;
    Option.iter
      (fun m ->
         let tag =
           Printf.sprintf "e21.r%d.hit%d%s" replicas hit
             (if scrub then ".scrub" else "")
         in
         Metrics.incr m (tag ^ ".wrong") ~by:(count `Wrong first);
         Metrics.incr m (tag ^ ".failed") ~by:(count `Failed first);
         Metrics.incr m (tag ^ ".detected") ~by:detected;
         Metrics.incr m (tag ^ ".repaired") ~by:repaired;
         Metrics.incr m (tag ^ ".bad_after")
           ~by:(count `Failed after + count `Wrong after))
      metrics;
    [
      Printf.sprintf "%.0f%%" (100. *. rate);
      string_of_int replicas;
      (if scrub then "on" else "off");
      Printf.sprintf "%d+%d" !decayed !corrupted;
      string_of_int (count `Wrong first);
      string_of_int (count `Failed first);
      string_of_int detected;
      string_of_int !refreshed;
      string_of_int repaired;
      (if repaired = 0 then "-" else Report.us repair_us);
      string_of_int (count `Failed after + count `Wrong after);
    ]
  in
  let cells =
    List.concat_map
      (fun rate ->
         List.concat_map
           (fun replicas ->
              List.map (fun scrub -> (rate, scrub, replicas)) [ false; true ])
           [ 1; 2 ])
      [ 0.05; 0.2 ]
  in
  let rows = List.map run_cell cells in
  Report.make ~id:"E21"
    ~title:"End-to-end integrity: detection, scrubbing, fleet repair"
    ~header:
      [ "flip rate"; "R"; "scrub"; "pages hit"; "wrong rows"; "failed q";
        "detected"; "refreshed"; "repaired"; "repair time"; "bad after" ]
    ~notes:
      [
        Printf.sprintf
          "CRC trailer verification adds %.1f%% device time to the E16 \
           hot-cache workload (%s off, %s on): cache hits are never \
           re-verified, so a warm pool pays nothing"
          (100. *. (verified_us -. plain_us) /. plain_us)
          (Report.us plain_us) (Report.us verified_us);
        Printf.sprintf
          "with the cache off every structure read pays the verified \
           full-page read: %.1f%% over the seed's partial reads (%s off, \
           %s on)"
          (100. *. (verified_cold_us -. plain_cold_us) /. plain_cold_us)
          (Report.us plain_cold_us) (Report.us verified_cold_us);
        "pages hit = one-bit decays + two-bit corruptions injected into \
         shard 0 replica 0's structure pages (seeded sample, alternating); \
         single flips are ECC-corrected on read, double flips are served \
         only through the CRC trailer check";
        "'wrong rows' counts queries whose answer was silently wrong: the \
         authenticated pages keep it at zero — damage is detected and \
         failed over, never served";
        "with R=2 anti-entropy rebuilds the corrupt replica from its \
         healthy peer through the phased loader ('bad after' = 0); with \
         R=1 the damaged shard degrades to partial results tagged with the \
         shard id";
        "the scrubber refreshes ECC-correctable decays in place during \
         idle slices, before a second flip pushes them past correction";
      ]
    rows

(* ---- E22 oblivious execution: the privacy/performance frontier ---- *)

let oblivious_frontier ?metrics ?(scale = default_scale) () =
  let module Metrics = Ghost_metrics.Metrics in
  let module Oblivious = Ghost_oblivious.Oblivious in
  (* The E18 mix prices the overhead; the leakage is measured on a
     probe family of eight queries that are byte-for-byte identical
     except for a hidden range bound, so any fingerprint difference
     between them is access pattern, not the declared query-text
     leak. *)
  let mix = interactive_analyst_mix in
  let probe_family =
    List.init 8 (fun i ->
      Printf.sprintf
        "SELECT Med.Name, Pre.Quantity FROM Medicine Med, Prescription Pre \
         WHERE Med.Type = 'Antibiotic' AND Pre.Quantity BETWEEN %d AND 9 AND \
         Med.MedID = Pre.MedID"
        (i + 1))
  in
  let run_mode mode =
    let db = make_db scale in
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics;
    let run_on db sql =
      match mode with
      | Oblivious.Off -> Ghost_db.query db sql
      | Oblivious.Full -> Ghost_db.query db ~oblivious:true sql
      | Oblivious.Pad ->
        let plan, _ =
          Planner.best (Ghost_db.catalog db) (Ghost_db.bind db sql)
        in
        Ghost_db.run_plan db (Plan.with_mode plan Oblivious.Pad)
    in
    Ghost_db.clear_trace db;
    let results = List.map (fun (_, sql) -> run_on db sql) mix in
    let time_us =
      List.fold_left (fun a r -> a +. r.Exec.elapsed_us) 0. results
    in
    let usb_bytes =
      List.fold_left
        (fun a r -> a + r.Exec.total.Device.used_usb_bytes_in)
        0 results
    in
    let pad_bytes =
      List.fold_left (fun a r -> a + r.Exec.padding_bytes) 0 results
    in
    let verdict =
      Ghost_db.audit
        ~access:
          (Ghost_db.access_profile db ~fixed_shape:(mode = Oblivious.Full))
        db
    in
    (* Empirical residual leakage: Shannon entropy over what a spy can
       observe of the probe family — the trace fingerprint plus the
       device clock (a spy timestamps the link traffic, so execution
       time is observable even when every byte count is fixed). A
       fresh instance per probe keeps page-cache warmth from
       contaminating the clock. *)
    let fps =
      List.map
        (fun sql ->
           let db = make_db scale in
           Ghost_db.clear_trace db;
           let r = run_on db sql in
           Oblivious.fingerprint (Ghost_db.trace db)
           ^ Printf.sprintf "clock %.1fus\n" r.Exec.elapsed_us)
        probe_family
    in
    let empirical_bits = Oblivious.Entropy.of_observations fps in
    let distinct = List.length (List.sort_uniq compare fps) in
    Ghost_db.flush_metrics db;
    Option.iter
      (fun m ->
         let name = Oblivious.mode_name mode in
         Metrics.incr m (Printf.sprintf "oblivious_pad_bytes.%s" name)
           ~by:pad_bytes;
         Metrics.incr m (Printf.sprintf "oblivious_usb_bytes.%s" name)
           ~by:usb_bytes;
         Metrics.incr m (Printf.sprintf "oblivious_modeled_millibits.%s" name)
           ~by:
             (int_of_float
                ((verdict.Privacy.data_dependent_bits *. 1000.) +. 0.5));
         Metrics.incr m (Printf.sprintf "oblivious_fingerprints.%s" name)
           ~by:distinct;
         Metrics.add_gauge m (Printf.sprintf "oblivious.%s.device_us" name)
           time_us)
      metrics;
    (mode, time_us, usb_bytes, pad_bytes, verdict, empirical_bits, distinct)
  in
  let cells =
    List.map run_mode [ Oblivious.Off; Oblivious.Pad; Oblivious.Full ]
  in
  let base_time =
    match cells with (_, t, _, _, _, _, _) :: _ -> t | [] -> 1.
  in
  let rows =
    List.map
      (fun (mode, time_us, usb_bytes, pad_bytes, verdict, empirical, distinct) ->
         [
           Oblivious.mode_name mode;
           Report.us time_us;
           Report.factor (time_us /. base_time);
           Report.bytes usb_bytes;
           Report.bytes pad_bytes;
           Printf.sprintf "%.2f" verdict.Privacy.data_dependent_bits;
           Printf.sprintf "%.2f" empirical;
           Printf.sprintf "%d/8" distinct;
         ])
      cells
  in
  Report.make ~id:"E22"
    ~title:"Oblivious execution: the privacy/performance frontier"
    ~header:
      [ "mode"; "device time"; "vs baseline"; "usb bytes"; "pad bytes";
        "modeled bits"; "empirical bits"; "fingerprints" ]
    ~notes:
      [
        "device time and USB bytes over the E18 interactive-plus-analyst \
         mix; 'modeled bits' is the auditor's upper bound on what the trace \
         shape can encode about hidden data (the baseline row also charges \
         the data-dependent climbing-index page walks)";
        "'empirical bits' / 'fingerprints' come from eight probe queries \
         identical up to a hidden range bound: entropy and distinct count \
         of their spy observations (trace fingerprint + device clock, \
         since a spy timestamps the link traffic) — 0 bits and 1/8 means \
         the eight hidden constants are indistinguishable on the wire; \
         padding alone fixes the byte counts but not the clock";
        "pad-only keeps the baseline plan and pads id shipments, value \
         streams and the result cardinality to power-of-two buckets; \
         oblivious adds the fixed-shape executor (bound-depth scans, \
         uniform per-candidate work), making the trace and the device \
         clock a function of schema and public bounds alone";
        "dummy tuples and ids never leave the trusted side: every row \
         returned is real, and 'pad bytes' is the price of hiding the \
         cardinalities";
      ]
    rows

(* ---- E23 write-heavy: a compacted delta log vs one never compacted ---- *)

let write_heavy ?metrics ?(scale = default_scale) () =
  let module Rng = Ghost_kernel.Rng in
  let module Metrics = Ghost_metrics.Metrics in
  let module Delta_log = Ghostdb.Delta_log in
  let module Compaction = Ghostdb.Compaction in
  let rounds = 8 and batch = 150 and deletes_per_round = 10 and probes = 12 in
  let rows_for db rng n =
    Medical.new_prescriptions scale rng
      ~first:(Catalog.total_count (Ghost_db.catalog db) "Prescription" + 1) n
  in
  (* Probe windows over the base key range: a visible root-key fence
     plus a hidden predicate, so every probe pays a DeltaScan — fenced
     on the leveled log, full on the flat one. *)
  let span = max 1 (scale.Medical.prescriptions - 40) in
  let probe_sqls =
    List.init probes (fun j ->
      let lo = 1 + (j * 1543 mod span) in
      Printf.sprintf
        "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE \
         Pre.PreID BETWEEN %d AND %d AND Pre.Quantity >= 1"
        lo (lo + 30))
  in
  (* ghostbench write_mix's hidden join: its Purpose predicate sits
     below the root, so each delta record is tested against it *)
  let join_sql =
    "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = \
     'Sclerosis' AND Vis.VisID = Pre.VisID"
  in
  let p95 xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    a.(95 * (Array.length a - 1) / 100)
  in
  let mean xs =
    List.fold_left ( +. ) 0. xs /. Float.of_int (List.length xs)
  in
  (* Both arms run the default device; only the compactor differs. The
     flat arm's log is never compacted, so it stays all L0. *)
  let run_mode leveled =
    let name = if leveled then "leveled" else "flat" in
    let db = make_db scale in
    Option.iter (fun m -> Ghost_db.set_metrics db (Some m)) metrics;
    let cat = Ghost_db.catalog db in
    let compactor = if leveled then Some (Compaction.create cat) else None in
    let rng = Rng.create 123 in
    let probe_once sql =
      let plan = Planner.all_pre cat (Ghost_db.bind db sql) in
      (Ghost_db.run_plan db plan).Exec.elapsed_us
    in
    let depth () =
      match Catalog.delta cat "Prescription" with
      | None -> (0, 0, 0, 0, 0)
      | Some log ->
        ( Delta_log.physical_records log,
          Delta_log.l0_pages log,
          Delta_log.run_count log,
          Delta_log.run_pages log,
          Delta_log.count log )
    in
    let report_rows = ref [] in
    let join_lat = ref [] in
    for round = 1 to rounds do
      Ghost_db.insert db (rows_for db rng batch);
      (* retire some of the previous round's inserts, so compaction has
         tombstoned records to fold away *)
      if round > 1 then begin
        let top = Catalog.total_count cat "Prescription" in
        Ghost_db.delete db
          (List.init deletes_per_round (fun i -> top - batch - (i * 7)))
      end;
      (* idle time between bursts: the compactor drains its backlog *)
      Option.iter Compaction.run_pending compactor;
      let lat = List.map probe_once probe_sqls in
      let join = probe_once join_sql in
      join_lat := join :: !join_lat;
      let physical, l0, runs, run_pages, total = depth () in
      report_rows :=
        [
          name;
          string_of_int round;
          string_of_int total;
          string_of_int physical;
          string_of_int l0;
          string_of_int runs;
          string_of_int run_pages;
          Report.us (mean lat);
          Report.us (p95 lat);
          Report.us join;
        ]
        :: !report_rows
    done;
    let final_lat = List.map probe_once probe_sqls in
    Ghost_db.flush_metrics db;
    Option.iter
      (fun m ->
         let physical, l0, runs, run_pages, total = depth () in
         Metrics.incr m (Printf.sprintf "write_heavy_records.%s" name) ~by:total;
         Metrics.incr m (Printf.sprintf "write_heavy_physical.%s" name)
           ~by:physical;
         Metrics.incr m (Printf.sprintf "write_heavy_l0_pages.%s" name) ~by:l0;
         Metrics.incr m (Printf.sprintf "write_heavy_runs.%s" name) ~by:runs;
         Metrics.incr m (Printf.sprintf "write_heavy_run_pages.%s" name)
           ~by:run_pages;
         Metrics.add_gauge m (Printf.sprintf "write_heavy.%s.p95_us" name)
           (p95 final_lat);
         Metrics.add_gauge m (Printf.sprintf "write_heavy.%s.join_p95_us" name)
           (p95 !join_lat))
      metrics;
    (List.rev !report_rows, p95 final_lat, p95 !join_lat)
  in
  let flat_rows, flat_p95, flat_join = run_mode false in
  let leveled_rows, leveled_p95, leveled_join = run_mode true in
  Report.make ~id:"E23"
    ~title:"Write-heavy: probe p95 vs delta-log depth, compaction off/on"
    ~header:
      [ "mode"; "round"; "delta recs"; "physical"; "L0 pages"; "runs";
        "run pages"; "probe mean"; "probe p95"; "join" ]
    ~notes:
      [
        Printf.sprintf
          "each round inserts %d prescriptions, deletes %d older ones, lets \
           the compactor drain, then runs %d fenced window probes (visible \
           PreID range + hidden Quantity predicate, forced Pre strategy)"
          batch deletes_per_round probes;
        "join: one ghostbench write_mix Purpose COUNT(*) join per round \
         (forced Pre strategy, so Visit.Purpose goes through its climbing \
         index); the delta scan tests each inserted row's visit against a \
         RAM bitmap of the matching visits, filled from the index";
        "flat: the append-only log grows unbounded and every probe scans all \
         of it; leveled: L0 spills into sorted runs whose [min,max] key \
         fences let the probe skip non-overlapping pages, and folding \
         drops tombstoned records";
        Printf.sprintf
          "final probe p95: flat %s vs leveled %s (%s)"
          (Report.us flat_p95) (Report.us leveled_p95)
          (Report.factor (flat_p95 /. Float.max leveled_p95 1e-9));
        Printf.sprintf "join p95 over the rounds: flat %s vs leveled %s"
          (Report.us flat_join) (Report.us leveled_join);
      ]
    (flat_rows @ leveled_rows)

let all ?(scale = default_scale) ?(full = false)
    ?(metrics = fun (_ : string) -> None) () =
  let cardinalities =
    if full then [ 1_000; 10_000; 100_000; 1_000_000 ]
    else [ 1_000; 10_000; 50_000; 100_000 ]
  in
  let scales =
    if full then [ Medical.tiny; Medical.small; Medical.medium ]
    else [ Medical.tiny; Medical.small ]
  in
  [
    ("E1", "Figure 6: ad-hoc plan comparison on the demo query",
     fun () -> fig6_plans ~scale ());
    ("E2", "Pre vs Post vs Cross as the visible predicate's selectivity sweeps",
     fun () -> pre_post_crossover ~scale ());
    ("E3", "per-operator stats (tuples, RAM, time) for the demo query",
     fun () -> operator_stats ~scale ());
    ("E4", "spy-visible message trace + privacy auditor verdict",
     fun () -> privacy_trace ~scale ());
    ("E5", "GhostDB vs last-resort baselines (grace hash, sort-merge)",
     fun () -> baseline_compare ~scale ());
    ("E6", "sensitivity to the Flash program/read cost ratio",
     fun () -> flash_asymmetry ~scale ());
    ("E7", "sensitivity to the RAM budget (8 KiB - 512 KiB)",
     fun () -> ram_sweep ());
    ("E8", "USB full speed vs high speed",
     fun () -> usb_sweep ~scale ());
    ("E9", "Flash storage overhead: base data vs SKTs vs climbing indexes",
     fun () -> storage_overhead ~scales ());
    ("E10", "execution time vs root-table cardinality",
     fun () -> scale_sweep ~cardinalities ());
    ("E11", "delta-log insert cost and query overhead vs pending delta",
     fun () -> insert_sweep ~scale ());
    ("E12", "inserts, deletes and the offline reorganization lifecycle",
     fun () -> lifecycle ~scale ());
    ("E13", "cost-model ranking quality and optimizer regret",
     fun () -> optimizer_calibration ~scale ());
    ("E14", "second workload: retail tree with hidden margins",
     fun () -> retail_workload ());
    ("E15", "robustness machinery overhead under fault injection",
     fun () -> robustness ~scale ());
    ("E16", "shared page cache: device time vs frame-pool size",
     fun () -> page_cache_sweep ?metrics:(metrics "E16") ~scale ());
    ("E17", "journaled reorganization cost and recovery time vs log size",
     fun () -> reorg_cost ?metrics:(metrics "E17") ~scale ());
    ("E18", "multi-session scheduler: throughput and tail latency vs policy",
     fun () -> sched_throughput ?metrics:(metrics "E18") ~scale ());
    ("E19", "fault-tolerant device fleet: scaling and availability under failure",
     fun () ->
       let shard_counts = if full then [ 4; 8; 16; 32 ] else [ 1; 2; 4; 8 ] in
       fleet_scaling ?metrics:(metrics "E19") ~scale ~shard_counts ());
    ("E20", "wire formats: verbose vs compact USB framing",
     fun () -> wire_formats ?metrics:(metrics "E20") ~scale ());
    ("E21", "end-to-end integrity: authenticated pages, scrubbing, fleet repair",
     fun () -> integrity_sweep ?metrics:(metrics "E21") ~scale ());
    ("E22", "oblivious execution: latency and USB bytes vs leakage bits",
     fun () -> oblivious_frontier ?metrics:(metrics "E22") ~scale ());
    ("E23", "write-heavy: probe p95 vs delta-log depth, compaction off/on",
     fun () -> write_heavy ?metrics:(metrics "E23") ~scale ());
    ("A1", "ablation: exact verification joins vs pure Bloom post-filtering",
     fun () -> ablation_exact_post ~scale ());
    ("A2", "ablation: Bloom target false-positive rate vs RAM",
     fun () -> ablation_bloom_fpr ~scale ());
    ("A3", "ablation: climbing indexes on hidden foreign keys",
     fun () -> ablation_hidden_fk_indexes ~scale ());
    ("A4", "ablation: value-frequency skew vs strategy choice",
     fun () -> ablation_skew ~scale ());
    ("A5", "ablation: deep Cross-filtering at intermediate levels",
     fun () -> ablation_deep_cross ~scale ());
  ]
