module Rng = Ghost_kernel.Rng
module Zipf = Ghost_kernel.Zipf
module Value = Ghost_kernel.Value
module Ram = Ghost_device.Ram
module Device = Ghost_device.Device
module Queries = Ghost_workload.Queries
module Bind = Ghost_sql.Bind
module Cost = Ghostdb.Cost
module Exec = Ghostdb.Exec
module Plan = Ghostdb.Plan
module Planner = Ghostdb.Planner
module Ghost_db = Ghostdb.Ghost_db
module Scheduler = Ghost_sched.Scheduler
module Workload_driver = Ghost_sched.Workload_driver

type spec = {
  clients : int;
  queries_per_client : int;
  theta : float;
  seed : int;
  mix : (string * string) list;
  deadline_factor : float;
}

let default_spec =
  {
    clients = 8;
    queries_per_client = 4;
    theta = 1.1;
    seed = 42;
    mix = Queries.all;
    deadline_factor = 8.0;
  }

type kill = {
  kill_at_us : float;
  kill_shard : int;
  kill_replica : int;
}

type query_outcome = {
  qo_client : int;
  qo_name : string;
  qo_rows : Value.t array list;
  qo_complete : bool;
  qo_unreachable : int list;
  qo_latency_us : float;
}

type summary = {
  shards : int;
  replicas : int;
  clients : int;
  completed : int;
  partial : int;
  failovers : int;
  hedges : int;
  unreachable_subs : int;
  makespan_us : float;
  throughput_qps : float;
  latency_p50_us : float;
  latency_p95_us : float;
  availability : float;
}

(* One device of the fleet with its own scheduler and the offset that
   places its local clock on the shared global timeline. *)
type dev = {
  d_shard : int;
  d_replica : int;
  d_device : Device.t;
  d_sched : Scheduler.t;
  mutable d_offset : float;
}

let global_now d = d.d_offset +. Device.elapsed_us d.d_device

let has_work d =
  let st = Scheduler.stats d.d_sched in
  st.Scheduler.queued + st.Scheduler.runnable > 0

(* Per-query in-flight state. *)
type qstate = {
  qs_client : int;
  qs_name : string;
  qs_mix : int;
  qs_bound : Bind.query;
  qs_submit_g : float;
  mutable qs_open : int;
  mutable qs_rows : Value.t array list list;  (* remapped, per resolved shard *)
  mutable qs_unreachable : int list;
  mutable qs_latest : float;
}

type sub = {
  sb_qs : qstate;
  mutable sb_shards : int list;
      (* candidate shards, current first: a singleton for a scattered
         sub-query, every shard (rotated) for a dimension-only read
         that may roam *)
  mutable sb_tried : int list;  (* replicas tried on the current shard *)
}

let run ?(kills = []) ?on_outcome fleet (spec : spec) =
  if spec.clients <= 0 then invalid_arg "Fleet_driver.run: clients <= 0";
  if spec.queries_per_client <= 0 then
    invalid_arg "Fleet_driver.run: queries_per_client <= 0";
  if spec.mix = [] then invalid_arg "Fleet_driver.run: empty mix";
  let n_shards = Fleet.shard_count fleet in
  let n_replicas = Fleet.replica_count fleet in
  let dev_index ~shard ~replica = (shard * n_replicas) + replica in
  let devs =
    Array.init (n_shards * n_replicas) (fun i ->
      let shard = i / n_replicas and r = i mod n_replicas in
      let db = Fleet.db fleet ~shard ~replica:r in
      let device = Ghost_db.device db in
      {
        d_shard = shard;
        d_replica = r;
        d_device = device;
        d_sched =
          Scheduler.create (Ghost_db.catalog db) (Ghost_db.public db);
        (* The loads charged during construction predate the workload:
           start the shared timeline at zero. *)
        d_offset = -.Device.elapsed_us device;
      })
  in
  (* Per (mix entry, shard): the rewritten sub-query; per replica on
     top: its plan and estimate on that device's catalog. *)
  let mix = Array.of_list spec.mix in
  let bound = Array.map (fun (_, sql) -> Fleet.bind fleet sql) mix in
  let subqs =
    Array.map
      (fun q -> Array.init n_shards (fun s -> Fleet.subquery fleet ~shard:s q))
      bound
  in
  let plans =
    Array.map
      (fun per_shard ->
         Array.mapi
           (fun s subq ->
              Array.init n_replicas (fun r ->
                let db = Fleet.db fleet ~shard:s ~replica:r in
                let plan, est = Planner.best (Ghost_db.catalog db) subq in
                (plan, est.Cost.est_time_us)))
           per_shard)
      subqs
  in
  (* Zipf ranks follow the optimizer's cost order, cheapest first, as
     in the single-device driver: rank the mix by its fleet-wide
     estimate — the sum of the replica-0 per-shard estimates for a
     scattered query, one shard's for a dimension-only read, which one
     shard serves. *)
  let order =
    let keyed =
      Array.mapi
        (fun i per_shard ->
           let total =
             if Fleet.scatters fleet bound.(i) then
               Array.fold_left (fun acc reps -> acc +. snd reps.(0)) 0. per_shard
             else snd per_shard.(0).(0)
           in
           (total, i))
        plans
    in
    Array.sort compare keyed;
    Array.map snd keyed
  in
  let zipf = Zipf.create ~n:(Array.length mix) ~theta:spec.theta in
  let rng = Rng.create spec.seed in
  let sessions : (int * int, sub) Hashtbl.t = Hashtbl.create 256 in
  let remaining = Array.make spec.clients (spec.queries_per_client - 1) in
  let completed = ref 0 in
  let partial = ref 0 in
  let failovers = ref 0 in
  let hedges = ref 0 in
  let unreachable_subs = ref 0 in
  let latencies = ref [] in
  let last_finish = ref 0. in
  let pending_kills =
    ref (List.sort (fun a b -> compare a.kill_at_us b.kill_at_us) kills)
  in
  let submit_query_ref = ref (fun ~client:_ ~at:_ -> ()) in
  let finalize (qs : qstate) =
    let rows = Fleet.merge fleet qs.qs_bound (List.concat qs.qs_rows) in
    let complete = qs.qs_unreachable = [] in
    if complete then incr completed else incr partial;
    latencies := (qs.qs_latest -. qs.qs_submit_g) :: !latencies;
    last_finish := Float.max !last_finish qs.qs_latest;
    (match on_outcome with
     | Some f ->
       f
         {
           qo_client = qs.qs_client;
           qo_name = qs.qs_name;
           qo_rows = rows;
           qo_complete = complete;
           qo_unreachable = List.sort compare qs.qs_unreachable;
           qo_latency_us = qs.qs_latest -. qs.qs_submit_g;
         }
     | None -> ());
    if remaining.(qs.qs_client) > 0 then begin
      remaining.(qs.qs_client) <- remaining.(qs.qs_client) - 1;
      !submit_query_ref ~client:qs.qs_client ~at:qs.qs_latest
    end
  in
  let rec submit_sub ~at (sub : sub) =
    let qs = sub.sb_qs in
    let shard = List.hd sub.sb_shards in
    match Fleet.pick_replica fleet ~shard ~exclude:sub.sb_tried with
    | None -> (
      match List.tl sub.sb_shards with
      | next :: _ as rest ->
        ignore next;
        sub.sb_shards <- rest;
        sub.sb_tried <- [];
        submit_sub ~at sub
      | [] ->
        incr unreachable_subs;
        qs.qs_unreachable <- shard :: qs.qs_unreachable;
        qs.qs_latest <- Float.max qs.qs_latest at;
        qs.qs_open <- qs.qs_open - 1;
        if qs.qs_open = 0 then finalize qs)
    | Some r ->
      sub.sb_tried <- r :: sub.sb_tried;
      let d = devs.(dev_index ~shard ~replica:r) in
      (* An idle device that lags the submission instant jumps forward:
         nothing happened on it in between. *)
      if (not (has_work d)) && global_now d < at then
        d.d_offset <- at -. Device.elapsed_us d.d_device;
      let plan, est = plans.(qs.qs_mix).(shard).(r) in
      (* The deadline is a straggler detector, not a correctness bound:
         arm it only when a hedge has somewhere to go — an untried
         not-dead replica on this shard, or (for a roaming read) a
         further shard. Same rule as the serial {!Fleet.query} path;
         without it a loaded R = 1 fleet would mark its only replica
         unreachable just for convoying behind an analytical scan. *)
      let alternative =
        List.exists
          (fun r' ->
             r' <> r
             && (not (List.mem r' sub.sb_tried))
             && Fleet.health fleet ~shard ~replica:r' <> Fleet.Dead)
          (List.init n_replicas Fun.id)
        || List.tl sub.sb_shards <> []
      in
      let deadline_us =
        if alternative then
          Some
            (spec.deadline_factor *. Float.max est 1000.
             *. float_of_int spec.clients)
        else None
      in
      (* Reserve a fair share of the device arena, but never slice it
         more than eight ways: a fleet client count can far exceed
         what one 64 KiB device can co-host, and a reservation smaller
         than a session's true sort/spill peak would let admission
         over-commit the arena and surface as spurious Ram_exceeded
         failures. Eight resident sessions at budget/8 is the regime
         the single-device driver (E18) runs at this scale. *)
      let working_ram =
        Ram.budget (Device.ram d.d_device) / min spec.clients 8
      in
      let sid =
        Scheduler.submit d.d_sched ~label:qs.qs_name ~working_ram ?deadline_us
          plan
      in
      Hashtbl.replace sessions (dev_index ~shard ~replica:r, sid) sub
  and drain d =
    let didx = dev_index ~shard:d.d_shard ~replica:d.d_replica in
    List.iter
      (fun (f : Scheduler.finished) ->
         match Hashtbl.find_opt sessions (didx, f.Scheduler.f_id) with
         | None -> ()
         | Some sub ->
           Hashtbl.remove sessions (didx, f.Scheduler.f_id);
           let qs = sub.sb_qs in
           let at = d.d_offset +. f.Scheduler.f_finished_us in
           (match f.Scheduler.f_outcome with
            | Scheduler.Completed r ->
              Fleet.note_success fleet ~shard:d.d_shard ~replica:d.d_replica;
              qs.qs_rows <-
                Fleet.remap fleet qs.qs_bound ~shard:d.d_shard r.Exec.rows
                :: qs.qs_rows;
              qs.qs_latest <- Float.max qs.qs_latest at;
              qs.qs_open <- qs.qs_open - 1;
              if qs.qs_open = 0 then finalize qs
            | Scheduler.Cancelled reason when reason = "deadline" ->
              Fleet.note_timeout fleet ~shard:d.d_shard ~replica:d.d_replica;
              incr hedges;
              submit_sub ~at sub
            | Scheduler.Cancelled _ ->
              (* "device-down": the kill already marked it dead *)
              incr failovers;
              submit_sub ~at sub
            | Scheduler.Failed _ ->
              Fleet.note_error fleet ~shard:d.d_shard ~replica:d.d_replica;
              incr failovers;
              submit_sub ~at sub))
      (Scheduler.poll_finished d.d_sched)
  in
  let shard_rr = ref 0 in
  let submit_query ~client ~at =
    let rank = Zipf.sample zipf rng in
    let m = order.(rank - 1) in
    let scatter = Fleet.scatters fleet bound.(m) in
    let qs =
      {
        qs_client = client;
        qs_name = fst mix.(m);
        qs_mix = m;
        qs_bound = bound.(m);
        qs_submit_g = at;
        qs_open = (if scatter then n_shards else 1);
        qs_rows = [];
        qs_unreachable = [];
        qs_latest = at;
      }
    in
    if scatter then
      for s = 0 to n_shards - 1 do
        submit_sub ~at { sb_qs = qs; sb_shards = [ s ]; sb_tried = [] }
      done
    else begin
      (* dimension-only read: one shard serves it, rotate for load,
         roam across the rest on failure *)
      let start = !shard_rr mod n_shards in
      incr shard_rr;
      let shards = List.init n_shards (fun i -> (start + i) mod n_shards) in
      submit_sub ~at { sb_qs = qs; sb_shards = shards; sb_tried = [] }
    end
  in
  submit_query_ref := submit_query;
  let apply_kill k =
    Fleet.kill fleet ~shard:k.kill_shard ~replica:k.kill_replica;
    let didx = dev_index ~shard:k.kill_shard ~replica:k.kill_replica in
    let d = devs.(didx) in
    let sids =
      Hashtbl.fold
        (fun (di, sid) _ acc -> if di = didx then sid :: acc else acc)
        sessions []
      |> List.sort compare
    in
    List.iter (fun sid -> Scheduler.cancel d.d_sched ~reason:"device-down" sid) sids;
    drain d
  in
  for client = 0 to spec.clients - 1 do
    submit_query ~client ~at:0.
  done;
  let pick_device () =
    let best = ref None in
    Array.iteri
      (fun i d ->
         if has_work d then
           match !best with
           | Some (_, g) when g <= global_now d -> ()
           | _ -> best := Some (i, global_now d))
      devs;
    !best
  in
  let rec loop () =
    match pick_device () with
    | None -> ()
    | Some (i, g) ->
      (match !pending_kills with
       | k :: rest when k.kill_at_us <= g ->
         pending_kills := rest;
         apply_kill k
       | _ ->
         let d = devs.(i) in
         ignore (Scheduler.step d.d_sched);
         drain d);
      loop ()
  in
  loop ();
  (* Kills scheduled past the end of the workload never fire. *)
  let lat = Array.of_list !latencies in
  Array.sort Float.compare lat;
  let total = !completed + !partial in
  {
    shards = n_shards;
    replicas = n_replicas;
    clients = spec.clients;
    completed = !completed;
    partial = !partial;
    failovers = !failovers;
    hedges = !hedges;
    unreachable_subs = !unreachable_subs;
    makespan_us = !last_finish;
    throughput_qps =
      (if !last_finish > 0. then float_of_int total /. !last_finish *. 1e6
       else 0.);
    latency_p50_us = Workload_driver.percentile lat 0.50;
    latency_p95_us = Workload_driver.percentile lat 0.95;
    availability =
      (if total = 0 then nan else float_of_int !completed /. float_of_int total);
  }

let pp_summary fmt s =
  Format.fprintf fmt
    "%d shards x %d replicas, %d clients: %d complete %d partial, %d failover \
     %d hedged %d unreachable, makespan %.0f us, %.1f q/s, p50 %.0f us p95 \
     %.0f us, availability %.3f"
    s.shards s.replicas s.clients s.completed s.partial s.failovers s.hedges
    s.unreachable_subs s.makespan_us s.throughput_qps s.latency_p50_us
    s.latency_p95_us s.availability
