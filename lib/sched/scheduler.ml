module Device = Ghost_device.Device
module Ram = Ghost_device.Ram
module Flash = Ghost_flash.Flash
module Bind = Ghost_sql.Bind
module Exec = Ghostdb.Exec
module Cost = Ghostdb.Cost
module Plan = Ghostdb.Plan
module Catalog = Ghostdb.Catalog
module Compaction = Ghostdb.Compaction
module Public_store = Ghost_public.Public_store
module Metrics = Ghost_metrics.Metrics

type policy = Fifo | Round_robin | Cost_based

let policy_name = function
  | Fifo -> "fifo"
  | Round_robin -> "round-robin"
  | Cost_based -> "cost-based"

type outcome =
  | Completed of Exec.result
  | Cancelled of string
  | Failed of exn

type session_state = Queued | Runnable | Done of outcome

type session = {
  id : int;
  label : string;
  plan : Plan.t;
  est : Cost.estimate;
  mutable working_ram : int;
      (* shrunk only by a forced admission (see [admit]) *)
  deadline_us : float option;  (* relative to [submitted_us] *)
  submitted_us : float;
  mutable admitted_us : float;
  mutable machine : Exec.step_machine option;
  mutable reservation : Ram.cell option;
  mutable live_ram : int;
      (* bytes the session's execution currently holds in the arena,
         tracked as the in_use delta across its own slices (no other
         session allocates while a slice runs) *)
  mutable scratch : Flash.t option;
  mutable usage : Device.usage;
  mutable slices : int;
  mutable state : session_state;
  mutable finished_us : float;
}

type finished = {
  f_id : int;
  f_label : string;
  f_outcome : outcome;
  f_submitted_us : float;
  f_admitted_us : float;
  f_finished_us : float;
  f_slices : int;
  f_usage : Device.usage;
}

type stats = {
  submitted : int;
  queued : int;
  runnable : int;
  finished : int;
  admission_blocked : int;
}

type t = {
  catalog : Catalog.t;
  public : Public_store.t;
  device : Device.t;
  ram : Ram.t;
  policy : policy;
  quantum_us : float;
  mutable next_id : int;
  mutable queue : session list;  (* submission order, head first *)
  mutable ready : session list;  (* admission order, head first *)
  mutable finished_rev : session list;
  mutable sessions : (int * session) list;
  mutable scratch_pool : Flash.t list;
  mutable scrubber : Ghost_scrub.Scrub.t option;
  mutable compactor : Compaction.t option;
  mutable maintenance_flip : bool;
      (* which maintenance task the next idle slice offers first, so
         the scrubber and the compactor share idle time fairly *)
  mutable n_submitted : int;
  mutable n_finished : int;
  mutable n_blocked : int;
}

let create ?(policy = Fifo) ?(quantum_us = infinity) catalog public =
  if not (quantum_us > 0.) then
    invalid_arg "Scheduler.create: quantum_us must be positive";
  let device = catalog.Catalog.device in
  {
    catalog;
    public;
    device;
    ram = Device.ram device;
    policy;
    quantum_us;
    next_id = 0;
    queue = [];
    ready = [];
    finished_rev = [];
    sessions = [];
    scratch_pool = [];
    scrubber = None;
    compactor = None;
    maintenance_flip = false;
    n_submitted = 0;
    n_finished = 0;
    n_blocked = 0;
  }

let policy t = t.policy
let quantum_us t = t.quantum_us

let submit t ?label ?working_ram ?deadline_us plan =
  (match deadline_us with
   | Some d when not (d > 0.) ->
     invalid_arg "Scheduler.submit: deadline_us must be positive"
   | _ -> ());
  let est = Cost.estimate t.catalog plan in
  let budget = Ram.budget t.ram in
  let working_ram =
    match working_ram with
    | Some w ->
      if w < 0 then invalid_arg "Scheduler.submit: working_ram must be >= 0";
      min w budget
    | None -> max 4096 (min est.Cost.est_ram_bytes (budget / 4))
  in
  let label =
    match label with
    | Some l -> l
    | None ->
      let text = plan.Plan.query.Bind.text in
      if String.length text <= 32 then text else String.sub text 0 32
  in
  let id = t.next_id in
  t.next_id <- id + 1;
  let s =
    {
      id;
      label;
      plan;
      est;
      working_ram;
      deadline_us;
      submitted_us = Device.elapsed_us t.device;
      admitted_us = nan;
      machine = None;
      reservation = None;
      live_ram = 0;
      scratch = None;
      usage = Device.zero_usage;
      slices = 0;
      state = Queued;
      finished_us = nan;
    }
  in
  t.queue <- t.queue @ [ s ];
  t.sessions <- (id, s) :: t.sessions;
  t.n_submitted <- t.n_submitted + 1;
  id

let take_scratch t =
  match t.scratch_pool with
  | region :: rest ->
    t.scratch_pool <- rest;
    region
  | [] -> Device.new_scratch_region t.device

(* Admission is strict FIFO — no bypass, so a large request cannot be
   starved by a stream of small ones. When the head's reservation does
   not fit but nothing is runnable, the head is force-admitted with
   whatever the arena can still give (its working_ram shrinks to the
   actual reservation, keeping the between-slice resize invariant),
   guaranteeing progress even against RAM held outside the scheduler. *)
let admit t =
  let rec go () =
    match t.queue with
    | [] -> ()
    | s :: rest ->
      let fits = Ram.would_fit t.ram s.working_ram in
      if fits || t.ready = [] then begin
        let reserve =
          if fits then s.working_ram
          else max 0 (min s.working_ram (Ram.budget t.ram - Ram.in_use t.ram))
        in
        s.working_ram <- reserve;
        s.reservation <-
          Some
            (Ram.alloc t.ram
               ~label:(Printf.sprintf "sched:s%d reservation" s.id)
               reserve);
        s.scratch <- Some (take_scratch t);
        s.machine <-
          Some
            (Exec.start ~quantum_us:t.quantum_us ?scratch:s.scratch t.catalog
               t.public s.plan);
        s.admitted_us <- Device.elapsed_us t.device;
        s.state <- Runnable;
        t.queue <- rest;
        t.ready <- t.ready @ [ s ];
        go ()
      end
  in
  go ()

let release_ram t s =
  (match s.reservation with
   | Some cell ->
     Ram.free t.ram cell;
     s.reservation <- None
   | None -> ());
  s.live_ram <- 0

let release_scratch t s =
  match s.scratch with
  | Some region ->
    (* A completed execution already reclaimed its spills; this pays
       only for runs a cancellation or failure left behind. *)
    Flash.erase_live_blocks region;
    t.scratch_pool <- region :: t.scratch_pool;
    s.scratch <- None
  | None -> ()

let retire t s outcome =
  s.state <- Done outcome;
  s.finished_us <- Device.elapsed_us t.device;
  release_ram t s;
  release_scratch t s;
  t.ready <- List.filter (fun r -> r.id <> s.id) t.ready;
  t.queue <- List.filter (fun r -> r.id <> s.id) t.queue;
  t.finished_rev <- s :: t.finished_rev;
  t.n_finished <- t.n_finished + 1

let cancel_session t s reason =
  match s.state with
  | Done _ -> ()
  | Queued | Runnable ->
    let before = Device.snapshot t.device in
    Device.set_session t.device (Some s.id);
    (match s.machine with Some m -> Exec.cancel m | None -> ());
    retire t s (Cancelled reason);
    Device.set_session t.device None;
    let after = Device.snapshot t.device in
    s.usage <- Device.add_usage s.usage (Device.usage_between t.device ~before ~after);
    match Device.metrics t.device with
    | None -> ()
    | Some reg -> Metrics.incr reg "sched.cancelled"

let cancel t ?(reason = "cancelled") id =
  match List.assoc_opt id t.sessions with
  | None -> ()
  | Some s -> cancel_session t s reason

let deadline_expired t s =
  match s.deadline_us with
  | None -> false
  | Some d -> Device.elapsed_us t.device > s.submitted_us +. d

let expire_deadlines t =
  let expired = List.filter (deadline_expired t) (t.queue @ t.ready) in
  List.iter (fun s -> cancel_session t s "deadline") expired

(* One quantum of the session, bracketed for per-session attribution.
   The reservation protocol keeps the arena invariant
   [reservation = max 0 (working_ram - live_ram)] between slices:
   resized to zero while the session runs (the executor draws real
   allocations from the headroom admission promised), re-reserving the
   unused remainder afterwards. The resize-back never overflows: only
   this session touched the arena during its slice, and the target is
   bounded by what the slice start freed plus what the slice itself
   released. *)
let run_slice t s =
  let m = match s.machine with Some m -> m | None -> assert false in
  (match s.reservation with
   | Some cell -> Ram.resize t.ram cell 0
   | None -> ());
  let ram_before = Ram.in_use t.ram in
  let before = Device.snapshot t.device in
  Device.set_session t.device (Some s.id);
  let step_result = try Ok (Exec.step m) with e -> Error e in
  s.live_ram <- s.live_ram + (Ram.in_use t.ram - ram_before);
  (* Retire inside the attribution bracket so a failed session's
     leftover spill erases are charged to it. *)
  (match step_result with
   | Ok (Exec.Finished r) -> retire t s (Completed r)
   | Error e -> retire t s (Failed e)
   | Ok Exec.Yielded ->
     (match s.reservation with
      | Some cell -> Ram.resize t.ram cell (max 0 (s.working_ram - s.live_ram))
      | None -> ()));
  Device.set_session t.device None;
  let after = Device.snapshot t.device in
  s.usage <- Device.add_usage s.usage (Device.usage_between t.device ~before ~after);
  s.slices <- s.slices + 1;
  match Device.metrics t.device with
  | None -> ()
  | Some reg ->
    let slice_us = after.Device.elapsed -. before.Device.elapsed in
    Metrics.incr reg "sched.slices";
    Metrics.observe reg "sched.slice.us" slice_us;
    Metrics.span reg
      ~name:(Printf.sprintf "s%d %s" s.id s.label)
      ~cat:"sched.slice" ~pid:1 ~tid:s.id
      ~args:[ ("slice", Float.of_int s.slices) ]
      ~ts:before.Device.elapsed ~dur:slice_us ();
    (* A completed session is the cost model's ground truth: the
       planner's whole-plan estimate against the device time actually
       attributed to the session across all its slices. *)
    (match step_result with
     | Ok (Exec.Finished _) ->
       Metrics.incr reg "sched.completed";
       Metrics.observe reg "sched.session.us" s.usage.Device.total_us;
       Metrics.observe reg "sched.latency.us" (s.finished_us -. s.submitted_us);
       Metrics.calibrate reg ~cls:s.plan.Plan.label
         ~predicted_us:s.est.Cost.est_time_us
         ~measured_us:s.usage.Device.total_us
     | Error _ -> Metrics.incr reg "sched.failed"
     | Ok Exec.Yielded -> ())

let pick t =
  match t.ready with
  | [] -> None
  | first :: rest -> (
    match t.policy with
    | Fifo | Round_robin -> Some first
    | Cost_based ->
      let remaining s = Cost.remaining_us s.est ~spent_us:s.usage.Device.total_us in
      Some
        (List.fold_left
           (fun best s -> if remaining s < remaining best then s else best)
           first rest))

let is_runnable s = match s.state with Runnable -> true | Queued | Done _ -> false

let set_scrubber t s = t.scrubber <- s
let scrubber t = t.scrubber
let set_compactor t c = t.compactor <- c
let compactor t = t.compactor

let step t =
  if t.queue = [] && t.ready = [] then
    (* Idle slice: no session wants the device, so give the slice to
       background maintenance — one fixed-size batch per step keeps
       idle work preemptible at the same granularity as queries. The
       scrubber and the compactor alternate who gets first claim on
       each idle slice, so a long compaction backlog cannot starve
       scrubbing (or vice versa); an idle task passes its slice to the
       other. With neither attached (the default) the idle path is the
       seed's [false], bit for bit. *)
    (match (t.scrubber, t.compactor) with
     | None, None -> false
     | sc, co ->
       let scrub () =
         match sc with Some s -> Ghost_scrub.Scrub.step s | None -> false
       in
       let compact () =
         match co with Some c -> Compaction.step c | None -> false
       in
       let first, second =
         if t.maintenance_flip then (compact, scrub) else (scrub, compact)
       in
       t.maintenance_flip <- not t.maintenance_flip;
       first () || second ())
  else begin
    expire_deadlines t;
    admit t;
    if t.queue <> [] then t.n_blocked <- t.n_blocked + 1;
    (match pick t with
     | None -> ()
     | Some s ->
       run_slice t s;
       if is_runnable s && t.policy = Round_robin then
         t.ready <- List.filter (fun r -> r.id <> s.id) t.ready @ [ s ]);
    true
  end

let run t =
  while step t do
    ()
  done

let poll_finished t =
  let finished = List.rev t.finished_rev in
  t.finished_rev <- [];
  List.map
    (fun s ->
       {
         f_id = s.id;
         f_label = s.label;
         f_outcome = (match s.state with Done o -> o | Queued | Runnable -> assert false);
         f_submitted_us = s.submitted_us;
         f_admitted_us = s.admitted_us;
         f_finished_us = s.finished_us;
         f_slices = s.slices;
         f_usage = s.usage;
       })
    finished

let outcome t id =
  match List.assoc_opt id t.sessions with
  | Some { state = Done o; _ } -> Some o
  | Some _ | None -> None

let usage t id =
  match List.assoc_opt id t.sessions with
  | Some s -> s.usage
  | None -> Device.zero_usage

let stats t =
  {
    submitted = t.n_submitted;
    queued = List.length t.queue;
    runnable = List.length t.ready;
    finished = t.n_finished;
    admission_blocked = t.n_blocked;
  }
