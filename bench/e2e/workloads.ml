(* The four workloads, driven through the library's public calls only.

   Every op stream is dealt from seeded decks (see [deal]): the seed
   moves the data set, the order of the ops and the constants inside
   their strata, while the composition of the mix stays fixed. That
   keeps run-to-run spread down to what the inputs really change. *)

module Device = Ghost_device.Device
module Flash = Ghost_flash.Flash
module Page_cache = Ghost_device.Page_cache
module Ram = Ghost_device.Ram
module Trace = Ghost_device.Trace
module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Spy = Ghost_public.Spy
module Metrics = Ghost_metrics.Metrics
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost
module Exec = Ghostdb.Exec
module Privacy = Ghostdb.Privacy
module Compaction = Ghostdb.Compaction
module Delta_log = Ghostdb.Delta_log
module Tombstone_log = Ghostdb.Tombstone_log
module Loader = Ghostdb.Loader
module Scheduler = Ghost_sched.Scheduler
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Reference = Ghost_workload.Reference

(* {2 Seeded decks} *)

(* A deck deals a fixed multiset in a freshly shuffled order each cycle,
   so every whole cycle has exactly the multiset's composition. *)
type 'a deck = { cards : 'a array; mutable next : int; rng : Rng.t }

let deck rng cards = { cards = Array.copy cards; next = 0; rng = Rng.split rng }

let deal d =
  if d.next = 0 then Rng.shuffle d.rng d.cards;
  let c = d.cards.(d.next) in
  d.next <- (d.next + 1) mod Array.length d.cards;
  c

let dealer rng cards =
  let d = deck rng cards in
  fun () -> deal d

(* A continuous constant in [lo, hi): ten equal strata, one draw in each
   per cycle. *)
let strata rng ~lo ~hi =
  let d = deck rng (Array.init 10 Fun.id) in
  fun () ->
    let i = deal d in
    lo +. ((hi -. lo) *. (float_of_int i +. Rng.float d.rng 1.) /. 10.)

(* {2 Query shapes} *)

type shape =
  | Single_table_visible
  | Range_hidden
  | Hidden_only
  | Deep_climb
  | Demo
  | Doctor_patient
  | Five_way
  | Visible_only
  | Count_quantity
  | Count_purpose
  | Count_bmi

(* The constants of one shape, each dealt from its own deck so that the
   shape's queries cycle through every value evenly. *)
type constants = {
  date_sel : unit -> float;
  purpose : unit -> string;
  med_type : unit -> string;
  country : unit -> string;
  age : unit -> int;
  quantity : unit -> int * int;
  bmi : unit -> float;
}

let constants rng =
  let age = strata rng ~lo:20. ~hi:80. in
  {
    date_sel = strata rng ~lo:0.005 ~hi:0.20;
    purpose = dealer rng Medical.purposes;
    med_type = dealer rng Medical.medicine_types;
    country = dealer rng Medical.countries;
    age = (fun () -> int_of_float (age ()));
    quantity = dealer rng (Array.init 10 (fun i -> (i + 1, min 10 (i + 3))));
    bmi = strata rng ~lo:25. ~hi:44.;
  }

(* One constants record per shape, created on first use. *)
let per_shape rng =
  let tbl = Hashtbl.create 16 in
  fun shape ->
    match Hashtbl.find_opt tbl shape with
    | Some c -> c
    | None ->
      let c = constants rng in
      Hashtbl.replace tbl shape c;
      c

let sql_of consts shape =
  let c = consts shape in
  let p = Printf.sprintf in
  match shape with
  | Single_table_visible ->
    p "SELECT Doc.Name, Doc.Speciality FROM Doctor Doc WHERE Doc.Country = '%s'"
      (c.country ())
  | Range_hidden ->
    let lo, hi = c.quantity () in
    p "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.Quantity \
       BETWEEN %d AND %d" lo hi
  | Hidden_only ->
    p "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre, Visit Vis WHERE \
       Vis.Purpose = '%s' AND Vis.VisID = Pre.VisID" (c.purpose ())
  | Deep_climb ->
    p "SELECT Pre.PreID, Doc.Name FROM Prescription Pre, Visit Vis, Doctor Doc \
       WHERE Doc.Country = '%s' AND Vis.DocID = Doc.DocID AND Pre.VisID = \
       Vis.VisID" (c.country ())
  | Demo ->
    let date_selectivity = c.date_sel () in
    let purpose = c.purpose () in
    Queries.demo_with ~date_selectivity ~purpose ~med_type:(c.med_type ()) ()
  | Doctor_patient ->
    let country = c.country () in
    p "SELECT Doc.Name, Pat.Age FROM Doctor Doc, Patient Pat, Visit Vis WHERE \
       Doc.Country = '%s' AND Pat.Age > %d AND Vis.DocID = Doc.DocID AND \
       Vis.PatID = Pat.PatID" country (c.age ())
  | Five_way ->
    let purpose = c.purpose () in
    let med_type = c.med_type () in
    let age = c.age () in
    p "SELECT Med.Name, Doc.Name, Pat.Age, Vis.Date, Pre.Quantity FROM Medicine \
       Med, Prescription Pre, Visit Vis, Doctor Doc, Patient Pat WHERE \
       Vis.Purpose = '%s' AND Med.Type = '%s' AND Pat.Age > %d AND Doc.Country \
       = '%s' AND Med.MedID = Pre.MedID AND Vis.VisID = Pre.VisID AND Vis.DocID \
       = Doc.DocID AND Vis.PatID = Pat.PatID" purpose med_type age (c.country ())
  | Visible_only ->
    p "SELECT Med.Name, Pre.Frequency FROM Medicine Med, Prescription Pre WHERE \
       Med.Type = '%s' AND Med.MedID = Pre.MedID" (c.med_type ())
  | Count_quantity ->
    let lo, hi = c.quantity () in
    p "SELECT COUNT(*) FROM Prescription Pre WHERE Pre.Quantity BETWEEN %d AND %d"
      lo hi
  | Count_purpose ->
    p "SELECT COUNT(*) FROM Prescription Pre, Visit Vis WHERE Vis.Purpose = '%s' \
       AND Vis.VisID = Pre.VisID" (c.purpose ())
  | Count_bmi ->
    p "SELECT COUNT(*) FROM Prescription Pre, Visit Vis, Patient Pat WHERE \
       Pat.BodyMassIndex >= %.2f AND Vis.PatID = Pat.PatID AND Pre.VisID = \
       Vis.VisID" (c.bmi ())

let weighted ws = Array.concat (List.map (fun (s, w) -> Array.make w s) ws)

(* The paper's interactive use: shapes in order of device cost at the
   medium scale, cheapest most often. The median falls inside
   doctor_patient, whose age constant is continuous, so it moves
   smoothly with the seed rather than jumping between clusters. *)
let interactive_mix =
  weighted
    [
      (Single_table_visible, 20); (Demo, 20); (Doctor_patient, 15);
      (Hidden_only, 12); (Deep_climb, 10); (Five_way, 10); (Range_hidden, 8);
      (Visible_only, 5);
    ]

let hot_mix = [| Count_quantity; Count_purpose; Count_bmi |]

(* {2 Workload definitions} *)

type kind = Mixed_read | Hot_hidden | Write_mix | Oblivious_sessions

let kind_of_name = function
  | "mixed_read" -> Some Mixed_read
  | "hot_hidden" -> Some Hot_hidden
  | "write_mix" -> Some Write_mix
  | "oblivious_sessions" -> Some Oblivious_sessions
  | _ -> None

let page_size = Device.default_config.Device.flash_geometry.Flash.page_size

(* 64 page-cache frames; the RAM budget grows by exactly the pool, as
   in E16, so queries keep the default free RAM. *)
let cache64 =
  { Device.default_config with
    Device.page_cache_frames = 64;
    ram_budget = Device.default_config.Device.ram_budget + (64 * page_size) }

let write_device =
  { Device.default_config with
    Device.durable_logs = true;
    log_runs = Some Device.default_log_runs }

type sizing = {
  scale : Medical.scale;
  config : Device.config;
  builds : int;  (** set-ups per run; setup_s is their median *)
  ops_per_s : float;
      (** ops the timed phase runs per requested second: the measured
          host rate of this workload on a 2-core x86-64 box, so the
          timed phase lasts about [--seconds] there while its op count
          stays a function of the arguments alone. write_mix slows down
          as its logs grow; its rate is the one of a 15 s run. *)
  round : int;  (** ops whose count the op count is rounded up to *)
  check_every : int;  (** every k-th op is checked against [Reference] *)
  warmup : int;  (** untimed ops before the timed phase *)
}

let sizing ~smoke kind =
  let s =
    match kind with
    | Mixed_read ->
      { scale = Medical.medium; config = cache64; builds = 5; ops_per_s = 105.;
        round = 200; check_every = 50; warmup = 0 }
    | Hot_hidden ->
      { scale = Medical.small; config = cache64; builds = 7; ops_per_s = 840.;
        round = 300; check_every = 200; warmup = 500 }
    | Write_mix ->
      { scale = Medical.small; config = write_device; builds = 7; ops_per_s = 380.;
        round = 100; check_every = 0; warmup = 0 }
    | Oblivious_sessions ->
      { scale = Medical.small; config = Device.default_config; builds = 7;
        ops_per_s = 68.; round = 100; check_every = 20; warmup = 0 }
  in
  if smoke then
    { s with scale = Medical.tiny; builds = 1; round = 10;
             check_every = min s.check_every 5; warmup = min s.warmup 5 }
  else s

(* A smoke run is 40 ops, whatever [seconds] says. *)
let op_count sz ~smoke ~seconds =
  if smoke then 40
  else
    let n = int_of_float (Float.ceil (seconds *. sz.ops_per_s)) in
    sz.round * max 1 ((n + sz.round - 1) / sz.round)

(* {2 Accounting} *)

type acc = {
  mutable ops : int;
  mutable attempted : int;
  mutable failed : int;
  mutable failures : string list;  (** first few, for the log *)
  mutable lat : float list;  (** device us per op *)
  mutable write_lat : float list;
  mutable host_s : float;  (** host seconds of the timed phase *)
  mutable usage : Device.usage;  (** device work of the timed phase *)
  mutable erases : int;
  mutable bytes_programmed : int;
  mutable minor_words : float;
  mutable major_collections : int;
  mutable queries : int;
  ledger : (string, float array) Hashtbl.t;
      (** Exec's operator class -> flash us, usb us, cpu us, tuples in,
          device us *)
  mutable bloom_fp : int;
  mutable padding : int;
  mutable event_bytes : int;
  mutable msgs : int;
  mutable leak_bits : float;
  mutable ram_peak : int;
  mutable q_errors : float list;
  mutable rows_inserted : int;
  mutable insert_dev_us : float;
  mutable compaction_us : float;
  mutable compaction_steps : int;
  mutable admit_wait : float list;
  mutable service : float list;
  mutable slices : int;
  mutable admission_blocked : int;
}

let new_acc () =
  {
    ops = 0; attempted = 0; failed = 0; failures = []; lat = []; write_lat = [];
    host_s = 0.; usage = Device.zero_usage; erases = 0; bytes_programmed = 0;
    minor_words = 0.; major_collections = 0; queries = 0;
    ledger = Hashtbl.create 16; bloom_fp = 0; padding = 0; event_bytes = 0;
    msgs = 0; leak_bits = 0.; ram_peak = 0; q_errors = [];
    rows_inserted = 0; insert_dev_us = 0.; compaction_us = 0.;
    compaction_steps = 0; admit_wait = []; service = []; slices = 0;
    admission_blocked = 0;
  }

type env = {
  db : Ghost_db.t;
  cat : Catalog.t;
  device : Device.t;
  schema : Ghost_relation.Schema.t;
  access : Privacy.access;
  tr : Tracer.t;
  metrics : Metrics.t option;
      (** the traced run's registry, attached during the timed phase *)
  cal : Calibration.t;
  acc : acc;
  rng : Rng.t;
  consts : shape -> constants;
}

let fail env msg =
  let a = env.acc in
  a.failed <- a.failed + 1;
  if List.length a.failures < 5 then a.failures <- msg :: a.failures

(* Runs [f] as part of the timed phase: its host time, device work and
   allocation are charged to the run, and a traced run's registry sees
   it. Returns the device usage of the window. *)
let timed env f =
  let a = env.acc in
  let s0 = Device.snapshot env.device in
  let gc0 = Gc.quick_stat () in
  Option.iter (fun reg -> Ghost_db.set_metrics env.db (Some reg)) env.metrics;
  let t0 = Stats.now () in
  let r = f () in
  let t1 = Stats.now () in
  Ghost_db.set_metrics env.db None;
  let gc1 = Gc.quick_stat () in
  let s1 = Device.snapshot env.device in
  a.host_s <- a.host_s +. (t1 -. t0);
  Calibration.tick env.cal (t1 -. t0);
  let u = Device.usage_between env.device ~before:s0 ~after:s1 in
  a.usage <- Device.add_usage a.usage u;
  a.erases <- a.erases + s1.Device.flash.Flash.block_erases - s0.Device.flash.Flash.block_erases;
  a.bytes_programmed <-
    a.bytes_programmed + s1.Device.flash.Flash.bytes_programmed
    - s0.Device.flash.Flash.bytes_programmed;
  a.minor_words <- a.minor_words +. gc1.Gc.minor_words -. gc0.Gc.minor_words;
  a.major_collections <-
    a.major_collections + gc1.Gc.major_collections - gc0.Gc.major_collections;
  (r, u)

let guard f = try Ok (f ()) with e -> Error (Printexc.to_string e)

let record_exec env (r : Exec.result) =
  let a = env.acc in
  a.queries <- a.queries + 1;
  a.bloom_fp <- a.bloom_fp + r.Exec.bloom_fp_candidates;
  a.ram_peak <- max a.ram_peak r.Exec.ram_peak;
  List.iter
    (fun (o : Exec.op_stats) ->
       let cls = Stats.exec_class o.Exec.op_label in
       let v =
         match Hashtbl.find_opt a.ledger cls with
         | Some v -> v
         | None ->
           let v = Array.make 5 0. in
           Hashtbl.replace a.ledger cls v;
           v
       in
       let u = o.Exec.usage in
       v.(0) <- v.(0) +. u.Device.flash_us;
       v.(1) <- v.(1) +. u.Device.used_usb_us;
       v.(2) <- v.(2) +. u.Device.cpu_us;
       v.(3) <- v.(3) +. float_of_int o.Exec.tuples_in;
       v.(4) <- v.(4) +. u.Device.total_us)
    r.Exec.ops

let record_estimate env (est : Cost.estimate) ~measured_us =
  if measured_us > 0. && est.Cost.est_time_us > 0. then begin
    let q = est.Cost.est_time_us /. measured_us in
    env.acc.q_errors <- Float.max q (1. /. q) :: env.acc.q_errors
  end

(* Audits the trace of the ops since the last clear (one session's
   events when [session] is given) and accounts what a spy saw. *)
let audit env ?session () =
  let a = env.acc in
  let trace = Ghost_db.trace env.db in
  let v =
    Tracer.span env.tr "privacy.audit" (fun () ->
      Privacy.audit ?session ~access:env.access trace)
  in
  let spy = Tracer.span env.tr "spy.analyze" (fun () -> Spy.analyze ?session trace) in
  let events =
    match session with
    | Some s -> Trace.session_events trace s
    | None -> Trace.events trace
  in
  a.msgs <-
    List.fold_left (fun n (l : Spy.link_summary) -> n + l.Spy.messages) a.msgs
      spy.Spy.per_link;
  a.event_bytes <-
    List.fold_left (fun n (e : Trace.event) -> n + e.Trace.bytes) a.event_bytes events;
  a.padding <- a.padding + v.Privacy.padding_bytes;
  a.leak_bits <- a.leak_bits +. v.Privacy.data_dependent_bits;
  if not v.Privacy.ok then
    fail env ("audit: " ^ String.concat "; " v.Privacy.violations)
  else if env.access.Privacy.fixed_shape && v.Privacy.data_dependent_bits > 0. then
    fail env (Printf.sprintf "oblivious leak: %g bits" v.Privacy.data_dependent_bits)

let check_rows env ~label ref_db q rows =
  let a = env.acc in
  a.attempted <- a.attempted + 1;
  let expected =
    Tracer.span env.tr "reference.run" (fun () -> Reference.run env.schema ref_db q)
  in
  if Reference.sort_rows rows <> Reference.sort_rows expected then
    fail env
      (Printf.sprintf "%s: %d rows, reference %d: %s" label (List.length rows)
         (List.length expected) q.Ghost_sql.Bind.text)

(* {2 Serial ops} *)

let plan_query env ~oblivious q =
  Tracer.span env.tr "planner.plan" (fun () ->
    if oblivious then
      let plan = Planner.oblivious env.cat q in
      (plan, None)
    else
      let plan, est = Planner.best env.cat q in
      (plan, Some est))

(* One closed-loop query: SQL text in, rows out, on the device clock. *)
let query_op env ?ref_db sql =
  let a = env.acc in
  Tracer.request env.tr;
  a.ops <- a.ops + 1;
  a.attempted <- a.attempted + 1;
  let outcome, _ =
    timed env (fun () ->
      guard (fun () ->
        Tracer.span env.tr "op" (fun () ->
          let q = Tracer.span env.tr "sql.bind" (fun () -> Ghost_db.bind env.db sql) in
          let plan, est = plan_query env ~oblivious:false q in
          let r =
            Tracer.span env.tr "exec.run_plan" (fun () -> Ghost_db.run_plan env.db plan)
          in
          (q, est, r))))
  in
  (match outcome with
   | Error e -> fail env (Printf.sprintf "query raised %s: %s" e sql)
   | Ok (q, est, r) ->
     a.lat <- r.Exec.elapsed_us :: a.lat;
     record_exec env r;
     Option.iter (fun est -> record_estimate env est ~measured_us:r.Exec.elapsed_us) est;
     audit env ();
     Option.iter (fun db -> check_rows env ~label:"query" db q r.Exec.rows) ref_db);
  Ghost_db.clear_trace env.db

(* Untimed queries that leave the cache in its steady state. *)
let warm_up env n next_sql =
  for _ = 1 to n do
    let q = Ghost_db.bind env.db (next_sql ()) in
    ignore (Ghost_db.run_plan env.db (fst (Planner.best env.cat q)));
    Ghost_db.clear_trace env.db
  done

let serial_reads env ~sz ~n ~rows mix =
  let next_shape = dealer env.rng mix in
  let next_sql () = sql_of env.consts (next_shape ()) in
  warm_up env sz.warmup next_sql;
  let ref_db =
    Tracer.span env.tr "reference.load" (fun () -> Reference.db_of_rows env.schema rows)
  in
  for i = 1 to n do
    let check = sz.check_every > 0 && i mod sz.check_every = 0 in
    query_op env ?ref_db:(if check then Some ref_db else None) (next_sql ())
  done

(* {2 write_mix} *)

type write_op = Insert | Delete | Probe | Join

(* The bench's own copy of the live root rows, mirrored from every
   acknowledged insert and delete. [ids] holds the live ids densely for
   uniform sampling. *)
type model = {
  rows : (int, Value.t array) Hashtbl.t;
  mutable ids : int array;
  mutable live : int;
  mutable next_id : int;
}

let model_of rows =
  let pre = List.assoc "Prescription" rows in
  let m =
    { rows = Hashtbl.create (2 * List.length pre); ids = Array.make 1024 0; live = 0;
      next_id = 1 }
  in
  let add row =
    match row.(0) with
    | Value.Int id ->
      Hashtbl.replace m.rows id row;
      if m.live = Array.length m.ids then
        m.ids <- Array.append m.ids (Array.make m.live 0);
      m.ids.(m.live) <- id;
      m.live <- m.live + 1;
      m.next_id <- max m.next_id (id + 1)
    | _ -> invalid_arg "model: non-integer key"
  in
  (m, add)

let remove_at m i =
  Hashtbl.remove m.rows m.ids.(i);
  m.ids.(i) <- m.ids.(m.live - 1);
  m.live <- m.live - 1

let write_mix env ~sz ~n ~rows ~inject_model_error =
  let scale = sz.scale in
  let m, add = model_of rows in
  List.iter add (List.assoc "Prescription" rows);
  let compactor = Compaction.create env.cat in
  let next_op =
    dealer env.rng
      (weighted [ (Insert, 5); (Delete, 1); (Probe, 3); (Join, 1) ])
  in
  let window = strata env.rng ~lo:0. ~hi:1. in
  (* Batches of 4 to 12 rows, 8 on average: insert latency follows the
     batch size and where the batch falls on the log's tail page. *)
  let batch_size = dealer env.rng (Array.init 9 (fun i -> i + 4)) in
  let min_quantity = dealer env.rng (Array.init 10 succ) in
  let checkpoints = max 1 (n / 10) in
  let new_rows k =
    List.init k (fun i ->
      [|
        Value.Int (m.next_id + i);
        Value.Int (Rng.int_in env.rng 1 10);
        Value.Int (Rng.int_in env.rng 1 4);
        Value.Date (Rng.int_in env.rng Medical.date_lo Medical.date_hi);
        Value.Int (1 + Rng.int env.rng scale.Medical.medicines);
        Value.Int (1 + Rng.int env.rng scale.Medical.visits);
      |])
  in
  let write name f =
    let a = env.acc in
    Tracer.request env.tr;
    a.ops <- a.ops + 1;
    a.attempted <- a.attempted + 1;
    let outcome, u = timed env (fun () -> guard (fun () -> Tracer.span env.tr name f)) in
    match outcome with
    | Error e ->
      fail env (Printf.sprintf "%s raised %s" name e);
      None
    | Ok () ->
      a.lat <- u.Device.total_us :: a.lat;
      a.write_lat <- u.Device.total_us :: a.write_lat;
      Some u.Device.total_us
  in
  let checkpoint () =
    if inject_model_error && m.live > 0 then begin
      (* A wrong model row: the next comparison must fail. *)
      let id = m.ids.(0) in
      let row = Array.copy (Hashtbl.find m.rows id) in
      row.(1) <- Value.Int 11;
      Hashtbl.replace m.rows id row
    end;
    let ref_db =
      Tracer.span env.tr "reference.load" (fun () ->
        Reference.db_of_rows env.schema
          (List.map
             (fun (t, r) ->
                if t = "Prescription" then
                  (t, Hashtbl.fold (fun _ row acc -> row :: acc) m.rows [])
                else (t, r))
             rows))
    in
    List.iter
      (fun sql ->
         match guard (fun () -> Ghost_db.query env.db sql) with
         | Ok r ->
           check_rows env ~label:"checkpoint" ref_db (Ghost_db.bind env.db sql) r.Exec.rows
         | Error e ->
           env.acc.attempted <- env.acc.attempted + 1;
           fail env ("checkpoint raised " ^ e))
      [
        "SELECT Pre.PreID, Pre.Quantity, Pre.Frequency FROM Prescription Pre";
        sql_of env.consts Count_purpose;
      ];
    Ghost_db.clear_trace env.db
  in
  for i = 1 to n do
    (match next_op () with
     | Insert ->
       let batch = new_rows (batch_size ()) in
       Option.iter
         (fun us ->
            List.iter add batch;
            env.acc.rows_inserted <- env.acc.rows_inserted + List.length batch;
            env.acc.insert_dev_us <- env.acc.insert_dev_us +. us)
         (write "ghost_db.insert" (fun () -> Ghost_db.insert env.db batch))
     | Delete ->
       if m.live > 0 then begin
         let i = Rng.int env.rng m.live in
         if write "ghost_db.delete" (fun () -> Ghost_db.delete env.db [ m.ids.(i) ]) <> None
         then remove_at m i
       end
     | Probe ->
       let hi_id = m.next_id - 1 in
       let lo = 1 + int_of_float (window () *. float_of_int (max 1 (hi_id - 30))) in
       query_op env
         (Printf.sprintf
            "SELECT Pre.PreID, Pre.Quantity FROM Prescription Pre WHERE Pre.PreID \
             BETWEEN %d AND %d AND Pre.Quantity >= %d"
            lo (lo + 30) (min_quantity ()))
     | Join -> query_op env (sql_of env.consts Count_purpose));
    (* the idle slice between ops goes to background compaction *)
    let worked, u =
      timed env (fun () ->
        Tracer.span env.tr "compaction.step" (fun () -> Compaction.step compactor))
    in
    if worked then begin
      env.acc.compaction_steps <- env.acc.compaction_steps + 1;
      env.acc.compaction_us <- env.acc.compaction_us +. u.Device.total_us
    end;
    audit env ();
    Ghost_db.clear_trace env.db;
    if i mod checkpoints = 0 then checkpoint ()
  done;
  (Compaction.progress compactor).Compaction.pages_written

(* {2 oblivious_sessions} *)

type session = {
  client : int;
  index : int;  (** position in the op stream, from 1 *)
  query : Ghost_sql.Bind.query;
  plan : Ghostdb.Plan.t;
}

(* Four closed-loop clients share one scheduler. Sessions run in rounds
   of [sz.round] queries; between rounds the trace is audited per
   session, checked and cleared, outside the timed phase. *)
let oblivious_sessions env ~sz ~n ~rows =
  let clients = 4 in
  let a = env.acc in
  let sched =
    Scheduler.create ~policy:Scheduler.Round_robin ~quantum_us:500. env.cat
      (Ghost_db.public env.db)
  in
  let working_ram = max 4096 (Ram.budget (Device.ram env.device) / clients) in
  let next_shape = dealer env.rng interactive_mix in
  let ref_db =
    Tracer.span env.tr "reference.load" (fun () -> Reference.db_of_rows env.schema rows)
  in
  let submitted = ref 0 in
  while !submitted < n do
    let quota = Array.make clients 0 in
    for i = 0 to min sz.round (n - !submitted) - 1 do
      quota.(i mod clients) <- quota.(i mod clients) + 1
    done;
    let sessions = Hashtbl.create 128 in
    let finished = ref [] in
    (* A query that fails to bind or plan counts as failed and the
       client moves on to its next one. *)
    let rec submit client =
      if quota.(client) > 0 then begin
        quota.(client) <- quota.(client) - 1;
        incr submitted;
        a.ops <- a.ops + 1;
        a.attempted <- a.attempted + 1;
        Tracer.request env.tr;
        let sql = sql_of env.consts (next_shape ()) in
        match
          guard (fun () ->
            let q = Tracer.span env.tr "sql.bind" (fun () -> Ghost_db.bind env.db sql) in
            let plan, _ = plan_query env ~oblivious:true q in
            let id =
              Tracer.span env.tr "sched.submit" (fun () ->
                Scheduler.submit sched ~working_ram plan)
            in
            (id, q, plan))
        with
        | Ok (id, query, plan) ->
          Hashtbl.replace sessions id
            { client; index = !submitted; query; plan }
        | Error e ->
          fail env (Printf.sprintf "submit raised %s: %s" e sql);
          submit client
      end
    in
    ignore
      (timed env (fun () ->
         for c = 0 to clients - 1 do submit c done;
         let poll () =
           List.iter
             (fun (f : Scheduler.finished) ->
                finished := f :: !finished;
                submit (Hashtbl.find sessions f.Scheduler.f_id).client)
             (Tracer.span env.tr "sched.poll_finished" (fun () ->
                Scheduler.poll_finished sched))
         in
         while Tracer.span env.tr "sched.step" (fun () -> Scheduler.step sched) do
           poll ()
         done;
         poll ()));
    List.iter
      (fun (f : Scheduler.finished) ->
         let s = Hashtbl.find sessions f.Scheduler.f_id in
         match f.Scheduler.f_outcome with
         | Scheduler.Completed r ->
           let submitted_us = f.Scheduler.f_submitted_us in
           let admitted_us = f.Scheduler.f_admitted_us in
           a.lat <- (f.Scheduler.f_finished_us -. submitted_us) :: a.lat;
           a.admit_wait <- (admitted_us -. submitted_us) :: a.admit_wait;
           a.service <- (f.Scheduler.f_finished_us -. admitted_us) :: a.service;
           a.slices <- a.slices + f.Scheduler.f_slices;
           record_exec env r;
           (* against the device work the scheduler charged to this
              session alone *)
           record_estimate env (Cost.estimate env.cat s.plan)
             ~measured_us:f.Scheduler.f_usage.Device.total_us;
           audit env ~session:f.Scheduler.f_id ();
           if s.index mod sz.check_every = 0 then
             check_rows env ~label:"session" ref_db s.query r.Exec.rows
         | Scheduler.Cancelled why -> fail env ("session cancelled: " ^ why)
         | Scheduler.Failed e -> fail env ("session failed: " ^ Printexc.to_string e))
      (List.rev !finished);
    Ghost_db.clear_trace env.db
  done;
  a.admission_blocked <- (Scheduler.stats sched).Scheduler.admission_blocked

(* {2 Set-up and the run} *)

(* [builds] fresh loads, each from a collected heap and timed at the
   reference speed; the last one is kept for the run. *)
let setup ~sz ~data_seed ~builds schema =
  let times = ref [] in
  let last = ref None in
  for _ = 1 to builds do
    last := None;
    Gc.full_major ();
    let built, dt =
      Calibration.time (fun () ->
        let rows = Medical.generate ~seed:data_seed sz.scale in
        (rows, Ghost_db.of_schema ~device_config:sz.config schema rows))
    in
    times := dt :: !times;
    last := Some built
  done;
  let rows, db = Option.get !last in
  (Stats.median !times, rows, db)

(* The phased load ({!Loader}) of one more copy of the data, each phase
   timed on its own. *)
let loader_profile env ~sz ~data_seed =
  let phase name f = Calibration.time (fun () -> Tracer.span env.tr name f) in
  let rows, generate_s =
    phase "loader.generate" (fun () -> Medical.generate ~seed:data_seed sz.scale)
  in
  let p, prepare_s =
    phase "loader.prepare" (fun () ->
      Loader.prepare ~device_config:sz.config ~trace:(Trace.create ()) env.schema rows)
  in
  let skts, build_skts_s = phase "loader.build_skts" (fun () -> Loader.build_skts p) in
  let entries, build_entries_s =
    phase "loader.build_entries" (fun () ->
      List.map (Loader.build_entry p) (Loader.table_names p))
  in
  let _, assemble_s = phase "loader.assemble" (fun () -> Loader.assemble p ~skts ~entries) in
  [
    ("loader.generate_s", generate_s);
    ("loader.prepare_s", prepare_s);
    ("loader.build_skts_s", build_skts_s);
    ("loader.build_entries_s", build_entries_s);
    ("loader.assemble_s", assemble_s);
  ]

type run = {
  workload : string;
  n_ops : int;
  attempted : int;
  failed : int;
  failures : string list;
  end_to_end : (string * float) list;
  ledger : (string * float) list;
      (** per-layer values that need no tracing: counters and device
          time *)
  tracer : Tracer.t;
  metrics : Metrics.t option;  (** traced runs only *)
  cal : Calibration.t;
  loader : (string * float) list;  (** traced runs only *)
}

let finite x = if Float.is_finite x then x else 0.

let root_logs cat =
  let root = (Ghost_relation.Schema.root cat.Catalog.schema).Ghost_relation.Schema.name in
  (Catalog.delta cat root, Catalog.tombstone cat root)

(* Flash bytes of the hidden structures and logs over the hidden user
   bytes they hold: the base column stores at load plus one log record
   per inserted row. *)
let storage_amp env ~base_bytes =
  let s = Ghost_db.storage env.db in
  let delta, tomb = root_logs env.cat in
  let log_bytes, record_bytes =
    match delta with
    | Some l -> (Delta_log.size_bytes l + Delta_log.dead_bytes l, Delta_log.record_bytes l)
    | None -> (0, 0)
  in
  let tomb_bytes =
    match tomb with
    | Some t -> Tombstone_log.size_bytes t + Tombstone_log.dead_bytes t
    | None -> 0
  in
  Stats.ratio
    (float_of_int
       (s.Catalog.base_bytes + s.Catalog.skt_bytes + s.Catalog.attr_index_bytes
        + s.Catalog.key_index_bytes + log_bytes + tomb_bytes))
    (float_of_int (base_bytes + (record_bytes * env.acc.rows_inserted)))

let ms_percentile xs p =
  let a = Stats.sorted xs in
  let p = Float.min p (float_of_int (Stats.tail_percentile (Array.length a))) in
  Stats.percentile a p /. 1000.

let ledger env ~compaction_pages =
  let a = env.acc in
  let per_op x = Stats.ratio x (float_of_int a.ops) in
  let per_query x = Stats.ratio x (float_of_int a.queries) in
  let u = a.usage in
  let c = u.Device.cache in
  let delta, _ = root_logs env.cat in
  let log f = match delta with Some l -> float_of_int (f l) | None -> 0. in
  let record_bytes = log Delta_log.record_bytes in
  let q_errors = Stats.sorted a.q_errors in
  (* Under the scheduler an operator's Exec usage also holds the slices
     other sessions ran in the middle of it. A traced run's registry sums
     each class's operators on their own session's virtual clock
     (histogram exec.op.<class>.us), so each class's Flash, USB and CPU
     times are scaled to that exact total; the split between the three
     stays Exec's. Serial runs scale by 1. *)
  let classes = Hashtbl.create 16 in
  Hashtbl.iter
    (fun cls (v : float array) ->
       let histogram reg = Metrics.histogram reg ("exec.op." ^ cls ^ ".us") in
       let scale =
         match Option.bind env.metrics histogram with
         | Some h -> Stats.ratio h.Metrics.sum v.(4)
         | None -> 1.
       in
       let name = Stats.op_class cls in
       let t =
         match Hashtbl.find_opt classes name with
         | Some t -> t
         | None ->
           let t = Array.make 4 0. in
           Hashtbl.replace classes name t;
           t
       in
       for i = 0 to 2 do t.(i) <- t.(i) +. (scale *. v.(i)) done;
       t.(3) <- t.(3) +. v.(3))
    a.ledger;
  let ops =
    List.concat_map
      (fun cls ->
         let v = Option.value ~default:(Array.make 4 0.) (Hashtbl.find_opt classes cls) in
         [
           (Printf.sprintf "op.%s.flash_us" cls, per_op v.(0));
           (Printf.sprintf "op.%s.usb_us" cls, per_op v.(1));
           (Printf.sprintf "op.%s.cpu_us" cls, per_op v.(2));
           (Printf.sprintf "op.%s.tuples_in" cls, per_op v.(3));
         ])
      Spec.op_classes
  in
  let f = float_of_int in
  List.map
    (fun (k, v) -> (k, finite v))
    ([
      ("cost.q_error_p50", Stats.percentile q_errors 50.);
      ("cost.q_error_p90", Stats.percentile q_errors 90.);
      ("exec.ram_peak_kb", f a.ram_peak /. 1024.);
    ]
     @ ops
     @ [
       ("device.flash_us", per_op u.Device.flash_us);
       ("device.usb_us", per_op u.Device.used_usb_us);
       ("device.cpu_us", per_op u.Device.cpu_us);
       ( "cache.hit_ratio",
         Stats.ratio (f c.Page_cache.hits) (f (c.Page_cache.hits + c.Page_cache.misses)) );
       ("cache.evictions_per_op", per_op (f c.Page_cache.evictions));
       ("flash.page_reads_per_op", per_op (f u.Device.flash_page_reads));
       ("flash.page_programs_per_op", per_op (f u.Device.flash_page_programs));
       ("flash.block_erases", f a.erases);
       ( "flash.write_amp",
         Stats.ratio (f a.bytes_programmed) (record_bytes *. f a.rows_inserted) );
       ("usb.bytes_in_per_op", per_op (f u.Device.used_usb_bytes_in));
       ("usb.msgs_per_op", per_op (f a.msgs));
       ("bloom.fp_per_query", per_query (f a.bloom_fp));
       ("log.physical_records", log Delta_log.physical_records);
       ("log.runs", log Delta_log.run_count);
       ("log.l0_pages", log Delta_log.l0_pages);
       ("log.dead_bytes", log Delta_log.dead_bytes);
       ("compaction.dev_ms", a.compaction_us /. 1000.);
       ("compaction.steps", f a.compaction_steps);
       ("compaction.pages_programmed", f compaction_pages);
       ("insert.dev_us_per_row", Stats.ratio a.insert_dev_us (f a.rows_inserted));
       ("write.dev_p50_ms", ms_percentile a.write_lat 50.);
       ("write.dev_p99_ms", ms_percentile a.write_lat 99.);
       ("sched.admit_wait_p99_ms", ms_percentile a.admit_wait 99.);
       ("sched.service_p50_ms", ms_percentile a.service 50.);
       ("sched.slices_per_query", Stats.ratio (f a.slices) (f (List.length a.service)));
       ("sched.admission_blocked", f a.admission_blocked);
       ("obl.padding_bytes_per_query", per_query (f a.padding));
       ("obl.padding_share", Stats.ratio (f a.padding) (f a.event_bytes));
       ("privacy.leak_bits_per_query", per_query a.leak_bits);
       ("gc.minor_words_per_op", per_op a.minor_words);
       ("gc.major_collections", f a.major_collections);
     ])

let run ?(inject_model_error = false) ~workload ~seed ~seconds ~smoke ~traced () =
  let kind =
    match kind_of_name workload with
    | Some k -> k
    | None -> invalid_arg ("unknown workload " ^ workload)
  in
  let sz = sizing ~smoke kind in
  let seeds = Rng.create seed in
  let data_seed = Rng.int seeds (1 lsl 30) in
  let op_seed = Rng.int seeds (1 lsl 30) in
  let schema = Medical.schema () in
  let cal = Calibration.create () in
  let setup_s, rows, db =
    setup ~sz ~data_seed ~builds:(if traced then 1 else sz.builds) schema
  in
  let rng = Rng.create op_seed in
  let consts = per_shape rng in
  let env =
    {
      db; cat = Ghost_db.catalog db; device = Ghost_db.device db; schema;
      access = Ghost_db.access_profile db ~fixed_shape:(kind = Oblivious_sessions);
      tr = Tracer.create ~enabled:traced;
      metrics =
        (if traced then Some (Metrics.create ~max_spans:Tracer.max_spans ()) else None);
      cal; acc = new_acc (); rng; consts;
    }
  in
  let base_bytes = (Ghost_db.storage db).Catalog.base_bytes in
  Ghost_db.clear_trace db;
  let n = op_count sz ~smoke ~seconds in
  let compaction_pages =
    match kind with
    | Mixed_read -> serial_reads env ~sz ~n ~rows interactive_mix; 0
    | Hot_hidden -> serial_reads env ~sz ~n ~rows hot_mix; 0
    | Write_mix -> write_mix env ~sz ~n ~rows ~inject_model_error
    | Oblivious_sessions -> oblivious_sessions env ~sz ~n ~rows; 0
  in
  let a = env.acc in
  let end_to_end =
    List.map
      (fun (k, v) -> (k, finite v))
      [
        ("dev_p50_ms", ms_percentile a.lat 50.);
        ("dev_p99_ms", ms_percentile a.lat 99.);
        ("dev_ops_per_s", Stats.ratio (float_of_int a.ops) (a.usage.Device.total_us /. 1e6));
        ( "host_ops_per_s",
          Stats.ratio (float_of_int a.ops) (Calibration.normalise cal a.host_s) );
        ("setup_s", setup_s);
        ("storage_amp", storage_amp env ~base_bytes);
      ]
  in
  let ledger = ledger env ~compaction_pages in
  let loader = if traced then loader_profile env ~sz ~data_seed else [] in
  {
    workload; n_ops = a.ops; attempted = a.attempted; failed = a.failed;
    failures = List.rev a.failures; end_to_end; ledger; tracer = env.tr;
    metrics = env.metrics; cal; loader;
  }

(* The per-layer metrics: host times and device counters from the traced
   run (the device clock does not see tracing, so its counters equal the
   measured run's), allocation from the measured one. *)
let per_layer ~measured ~traced =
  let mean_us name =
    Calibration.normalise traced.cal (Tracer.mean_us traced.tracer name)
  in
  let host =
    [
      ("sql.bind_us", mean_us "sql.bind");
      ("planner.plan_us", mean_us "planner.plan");
      ("exec.run_plan_us", mean_us "exec.run_plan");
      ("insert.host_us", mean_us "ghost_db.insert");
      ("delete.host_us", mean_us "ghost_db.delete");
      ("sched.step_us", mean_us "sched.step");
      ( "bench.trace_overhead",
        Stats.ratio
          (List.assoc "host_ops_per_s" traced.end_to_end)
          (List.assoc "host_ops_per_s" measured.end_to_end) );
    ]
  in
  let gc = List.filter (fun (k, _) -> String.starts_with ~prefix:"gc." k) measured.ledger in
  Spec.values Spec.per_layer (host @ gc @ traced.ledger @ traced.loader)
