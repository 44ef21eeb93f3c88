module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Schema = Ghost_relation.Schema
module Relation = Ghost_relation.Relation
module Predicate = Ghost_relation.Predicate
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Bind = Ghost_sql.Bind
module Aggregate = Ghost_sql.Aggregate
module Postproc = Ghost_sql.Postproc
module Spy = Ghost_public.Spy
module Ghost_db = Ghostdb.Ghost_db
module Catalog = Ghostdb.Catalog
module Reorg = Ghostdb.Reorg
module Exec = Ghostdb.Exec
module Planner = Ghostdb.Planner
module Cost = Ghostdb.Cost
module Privacy = Ghostdb.Privacy

type partitioning = Hash | Range

type topology = {
  shards : int;
  replicas : int;
  partitioning : partitioning;
}

let default_topology = { shards = 1; replicas = 1; partitioning = Range }

type robustness = {
  suspect_after : int;
  dead_after : int;
  hedge_factor : float;
}

let default_robustness = { suspect_after = 1; dead_after = 3; hedge_factor = 4.0 }

type health = Healthy | Suspect | Dead

let health_name = function
  | Healthy -> "healthy"
  | Suspect -> "suspect"
  | Dead -> "dead"

type replica = {
  mutable rep_db : Ghost_db.t;  (* swapped wholesale by a repair *)
  rep_shard : int;
  rep_index : int;
  mutable state : health;
  mutable consecutive_failures : int;
  mutable forced_down : bool;
  mutable errors : int;
  mutable timeouts : int;
  mutable integrity_failures : int;
  mutable probes : int;
  mutable probe_failures : int;
}

type shard = {
  sh_index : int;
  sh_globals : int array;  (* ascending; local l <-> sh_globals.(l-1) *)
  sh_replicas : replica array;
}

type t = {
  f_schema : Schema.t;
  f_topology : topology;
  f_robustness : robustness;
  f_shards : shard array;
  f_index_hidden_fks : bool option;  (* replayed by replica rebuilds *)
  root_name : string;
  root_key : string;
  n_root : int;
  mutable rr : int;  (* deterministic replica rotation *)
  mutable chaos_hook : (shard:int -> replica:int -> unit) option;
  single : Ghost_db.t option;  (* N = 1, R = 1 pass-through *)
}

(* ---------- partitioning ---------- *)

(* splitmix-style finalizer: deterministic, spreads consecutive ids *)
let hash_id id =
  let h = id * 0x9E3779B97F4A7 in
  let h = h lxor (h lsr 31) in
  let h = h * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

let shard_of_id partitioning ~shards ~n_root id =
  match partitioning with
  | Hash -> hash_id id mod shards
  | Range -> min (shards - 1) ((id - 1) * shards / n_root)

let create ?device_config ?per_device_config ?index_hidden_fks
    ?(topology = default_topology) ?(robustness = default_robustness) schema rows =
  if topology.shards <= 0 then invalid_arg "Fleet.create: shards <= 0";
  if topology.replicas <= 0 then invalid_arg "Fleet.create: replicas <= 0";
  let root = Schema.root schema in
  let root_rows =
    match List.assoc_opt root.Schema.name rows with
    | Some r -> r
    | None -> invalid_arg "Fleet.create: no rows for the root table"
  in
  let n_root = List.length root_rows in
  if n_root < topology.shards then
    invalid_arg "Fleet.create: fewer root rows than shards";
  let config_for ~shard ~replica =
    match per_device_config with
    | Some f -> Some (f ~shard ~replica)
    | None -> device_config
  in
  let id_of tuple =
    match tuple.(0) with
    | Value.Int id -> id
    | _ -> invalid_arg "Fleet.create: root key is not an integer"
  in
  (* Per shard: assigned root rows in ascending global-id order,
     re-keyed to dense 1..k. A single shard keeps the caller's rows
     untouched, so the one-device fleet is bit-identical to the seed
     construction. *)
  let shard_slices =
    if topology.shards = 1 then
      [| (Array.of_list (List.map id_of root_rows), root_rows) |]
    else begin
      let buckets = Array.make topology.shards [] in
      List.iter
        (fun tuple ->
           let id = id_of tuple in
           let s =
             shard_of_id topology.partitioning ~shards:topology.shards ~n_root id
           in
           buckets.(s) <- (id, tuple) :: buckets.(s))
        root_rows;
      Array.map
        (fun bucket ->
           let sorted =
             List.sort (fun (a, _) (b, _) -> compare a b) (List.rev bucket)
           in
           let globals = Array.of_list (List.map fst sorted) in
           let locals =
             List.mapi
               (fun i (_, tuple) ->
                  let local = Array.copy tuple in
                  local.(0) <- Value.Int (i + 1);
                  local)
               sorted
           in
           (globals, locals))
        buckets
    end
  in
  let other_rows = List.remove_assoc root.Schema.name rows in
  let shards =
    Array.mapi
      (fun s (globals, local_rows) ->
         let shard_rows = (root.Schema.name, local_rows) :: other_rows in
         let replicas =
           Array.init topology.replicas (fun r ->
             {
               rep_db =
                 Ghost_db.of_schema
                   ?device_config:(config_for ~shard:s ~replica:r)
                   ?index_hidden_fks schema shard_rows;
               rep_shard = s;
               rep_index = r;
               state = Healthy;
               consecutive_failures = 0;
               forced_down = false;
               errors = 0;
               timeouts = 0;
               integrity_failures = 0;
               probes = 0;
               probe_failures = 0;
             })
         in
         { sh_index = s; sh_globals = globals; sh_replicas = replicas })
      shard_slices
  in
  let single =
    if topology.shards = 1 && topology.replicas = 1 then
      Some shards.(0).sh_replicas.(0).rep_db
    else None
  in
  {
    f_schema = schema;
    f_topology = topology;
    f_robustness = robustness;
    f_shards = shards;
    f_index_hidden_fks = index_hidden_fks;
    root_name = root.Schema.name;
    root_key = root.Schema.key;
    n_root;
    rr = 0;
    chaos_hook = None;
    single;
  }

let topology t = t.f_topology
let schema t = t.f_schema
let shard_count t = t.f_topology.shards
let replica_count t = t.f_topology.replicas

let replica t ~shard ~replica =
  if shard < 0 || shard >= Array.length t.f_shards then
    invalid_arg "Fleet: shard out of range";
  let s = t.f_shards.(shard) in
  if replica < 0 || replica >= Array.length s.sh_replicas then
    invalid_arg "Fleet: replica out of range";
  s.sh_replicas.(replica)

let db t ~shard ~replica:r = (replica t ~shard ~replica:r).rep_db
let globals t ~shard = Array.copy t.f_shards.(shard).sh_globals

let shard_of_global t id =
  shard_of_id t.f_topology.partitioning ~shards:t.f_topology.shards
    ~n_root:t.n_root id

let bind t sql = Bind.bind t.f_schema sql

let scatters t (q : Bind.query) = List.mem t.root_name q.Bind.tables

(* ---------- health runtime ---------- *)

let health t ~shard ~replica:r = (replica t ~shard ~replica:r).state

let kill t ~shard ~replica:r =
  let rep = replica t ~shard ~replica:r in
  rep.forced_down <- true;
  rep.state <- Dead

let revive t ~shard ~replica:r =
  let rep = replica t ~shard ~replica:r in
  rep.forced_down <- false;
  rep.state <- Suspect;
  rep.consecutive_failures <- 0

let note_failure t rep =
  rep.consecutive_failures <- rep.consecutive_failures + 1;
  if rep.consecutive_failures >= t.f_robustness.dead_after then rep.state <- Dead
  else if rep.consecutive_failures >= t.f_robustness.suspect_after then
    rep.state <- Suspect

let recover_health rep =
  rep.consecutive_failures <- 0;
  if not rep.forced_down then rep.state <- Healthy

let note_success t ~shard ~replica:r = recover_health (replica t ~shard ~replica:r)

let note_error t ~shard ~replica:r =
  let rep = replica t ~shard ~replica:r in
  rep.errors <- rep.errors + 1;
  note_failure t rep

let note_timeout t ~shard ~replica:r =
  let rep = replica t ~shard ~replica:r in
  rep.timeouts <- rep.timeouts + 1;
  note_failure t rep

let probe_replica t rep =
  rep.probes <- rep.probes + 1;
  if rep.forced_down then begin
    rep.probe_failures <- rep.probe_failures + 1;
    note_failure t rep;
    false
  end
  else
    match Device.emit_ack (Ghost_db.device rep.rep_db) with
    | () ->
      recover_health rep;
      true
    | exception Device.Usb_error _ ->
      rep.probe_failures <- rep.probe_failures + 1;
      note_failure t rep;
      false

let probe t ~shard ~replica:r = probe_replica t (replica t ~shard ~replica:r)

let pick_replica t ~shard ~exclude =
  let s = t.f_shards.(shard) in
  let n = Array.length s.sh_replicas in
  let start = t.rr mod n in
  t.rr <- t.rr + 1;
  let rotated = List.init n (fun i -> (start + i) mod n) in
  let in_state st =
    List.filter
      (fun i -> (not (List.mem i exclude)) && s.sh_replicas.(i).state = st)
      rotated
  in
  let rec first_live = function
    | [] -> None
    | i :: rest ->
      let rep = s.sh_replicas.(i) in
      if rep.state = Healthy then Some i
      else if probe_replica t rep then Some i
      else first_live rest
  in
  first_live (in_state Healthy @ in_state Suspect)

let set_chaos_hook t hook = t.chaos_hook <- hook

type replica_stats = {
  r_state : health;
  r_errors : int;
  r_timeouts : int;
  r_integrity_failures : int;
  r_probes : int;
  r_probe_failures : int;
}

let replica_stats t ~shard ~replica:r =
  let rep = replica t ~shard ~replica:r in
  {
    r_state = rep.state;
    r_errors = rep.errors;
    r_timeouts = rep.timeouts;
    r_integrity_failures = rep.integrity_failures;
    r_probes = rep.probes;
    r_probe_failures = rep.probe_failures;
  }

(* ---------- scatter-gather plumbing ---------- *)

(* number of assigned global ids <= v *)
let rank_le g v =
  let lo = ref 0 and hi = ref (Array.length g) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if g.(mid) <= v then lo := mid + 1 else hi := mid
  done;
  !lo

let local_of g v =
  let k = rank_le g v in
  if k > 0 && g.(k - 1) = v then Some k else None

(* Root-key predicates, rewritten through the order-preserving id map:
   local order equals global order, so monotone comparisons become
   local ranges via the rank of the bound among the shard's assigned
   ids. An empty local range becomes [In []] (never matches). *)
let rewrite_cmp g (cmp : Predicate.comparison) =
  let n = Array.length g in
  let never = Predicate.In [] in
  let always = Predicate.Ge (Value.Int 1) in
  match cmp with
  | Predicate.Eq (Value.Int v) -> (
    match local_of g v with
    | Some l -> Predicate.Eq (Value.Int l)
    | None -> never)
  | Predicate.Ne (Value.Int v) -> (
    match local_of g v with
    | Some l -> Predicate.Ne (Value.Int l)
    | None -> always)
  | Predicate.Lt (Value.Int v) ->
    let k = rank_le g (v - 1) in
    if k = 0 then never else Predicate.Le (Value.Int k)
  | Predicate.Le (Value.Int v) ->
    let k = rank_le g v in
    if k = 0 then never else Predicate.Le (Value.Int k)
  | Predicate.Gt (Value.Int v) ->
    let k = rank_le g v in
    if k >= n then never else Predicate.Ge (Value.Int (k + 1))
  | Predicate.Ge (Value.Int v) ->
    let k = rank_le g (v - 1) in
    if k >= n then never else Predicate.Ge (Value.Int (k + 1))
  | Predicate.Between (Value.Int a, Value.Int b) ->
    let lo = rank_le g (a - 1) + 1 in
    let hi = rank_le g b in
    if lo > hi then never else Predicate.Between (Value.Int lo, Value.Int hi)
  | Predicate.In vs ->
    Predicate.In
      (List.filter_map
         (function
           | Value.Int v -> Option.map (fun l -> Value.Int l) (local_of g v)
           | _ -> None)
         vs)
  | other -> other

let subquery t ~shard (q : Bind.query) =
  let g = t.f_shards.(shard).sh_globals in
  let selections =
    List.map
      (fun (p : Predicate.t) ->
         if p.Predicate.table = t.root_name && p.Predicate.column = t.root_key
         then { p with Predicate.cmp = rewrite_cmp g p.Predicate.cmp }
         else p)
      q.Bind.selections
  in
  { q with Bind.selections; aggregate = None; order_by = []; limit = None }

let remap t (q : Bind.query) ~shard rows =
  let g = t.f_shards.(shard).sh_globals in
  let positions =
    List.mapi (fun i p -> (i, p)) q.Bind.projections
    |> List.filter_map (fun (i, (tbl, col)) ->
         if tbl = t.root_name && col = t.root_key then Some i else None)
  in
  if positions = [] then rows
  else
    List.map
      (fun row ->
         let row = Array.copy row in
         List.iter
           (fun i ->
              match row.(i) with
              | Value.Int l when l >= 1 && l <= Array.length g ->
                row.(i) <- Value.Int g.(l - 1)
              | _ -> ())
           positions;
         row)
      rows

let merge _t (q : Bind.query) rows =
  let rows =
    match q.Bind.aggregate with
    | Some spec -> Aggregate.apply spec rows
    | None -> rows
  in
  Postproc.apply ~order_by:q.Bind.order_by ~limit:q.Bind.limit rows

(* ---------- queries ---------- *)

type shard_report = {
  sr_shard : int;
  sr_served_by : int option;
  sr_attempts : int;
  sr_hedged : bool;
  sr_failed_over : bool;
  sr_elapsed_us : float;
}

type result = {
  rows : Value.t array list;
  row_count : int;
  complete : bool;
  unreachable : int list;
  elapsed_us : float;
  shard_reports : shard_report list;
}

type attempt_failure = Straggler | Transport | Integrity

(* One execution attempt on one replica, bounded by [budget_us] of
   simulated device time (infinite when no live alternative remains:
   better a slow answer than none). *)
let attempt t rep q ?exact_post ?bloom_fpr ~budget_us () =
  (match t.chaos_hook with
   | Some f -> f ~shard:rep.rep_shard ~replica:rep.rep_index
   | None -> ());
  if rep.forced_down then Error Transport
  else begin
    let db = rep.rep_db in
    let device = Ghost_db.device db in
    let t0 = Device.elapsed_us device in
    match
      let plan, _est = Planner.best (Ghost_db.catalog db) q in
      let machine =
        Exec.start ?exact_post ?bloom_fpr ~quantum_us:budget_us
          (Ghost_db.catalog db) (Ghost_db.public db) plan
      in
      match Exec.step machine with
      | Exec.Finished r -> `Done r
      | Exec.Yielded ->
        Exec.cancel machine;
        `Straggler
    with
    | `Done r -> Ok (r, Device.elapsed_us device -. t0)
    | `Straggler -> Error Straggler
    (* A persistent Integrity_error (the executor already retried once
       past the cache): this replica's cells are damaged — distinct
       from a transport fault, because the copy stays wrong until
       repaired. *)
    | exception Flash.Integrity_error _ -> Error Integrity
    | exception _ -> Error Transport
  end

let estimate_us rep q =
  let db = rep.rep_db in
  match Planner.best (Ghost_db.catalog db) q with
  | _, est -> est.Cost.est_time_us
  | exception _ -> infinity

let exec_shard t shard_idx q ?exact_post ?bloom_fpr () =
  let tried = ref [] in
  let attempts = ref 0 in
  let hedged = ref false in
  let failed_over = ref false in
  let elapsed = ref 0. in
  let rec go () =
    match pick_replica t ~shard:shard_idx ~exclude:!tried with
    | None -> (None, [])
    | Some r ->
      tried := r :: !tried;
      let rep = t.f_shards.(shard_idx).sh_replicas.(r) in
      (* A straggler budget only makes sense when another replica
         could take over. *)
      let alternative =
        pick_replica t ~shard:shard_idx ~exclude:!tried <> None
      in
      let budget_us =
        if alternative then
          Float.max 1.0 (t.f_robustness.hedge_factor *. estimate_us rep q)
        else infinity
      in
      incr attempts;
      let device = Ghost_db.device rep.rep_db in
      let t0 = Device.elapsed_us device in
      match attempt t rep q ?exact_post ?bloom_fpr ~budget_us () with
      | Ok (r_exec, dt) ->
        recover_health rep;
        elapsed := !elapsed +. dt;
        (Some r, r_exec.Exec.rows)
      | Error Straggler ->
        rep.timeouts <- rep.timeouts + 1;
        note_failure t rep;
        hedged := true;
        elapsed := !elapsed +. (Device.elapsed_us device -. t0);
        go ()
      | Error Transport ->
        rep.errors <- rep.errors + 1;
        note_failure t rep;
        failed_over := true;
        elapsed := !elapsed +. (Device.elapsed_us device -. t0);
        go ()
      | Error Integrity ->
        (* Served-corrupt replica: fail over like a transport error and
           feed the health machine, so persistent corruption demotes it
           to suspect (and eventually dead) — probed before readmission,
           rebuilt by anti-entropy. *)
        rep.integrity_failures <- rep.integrity_failures + 1;
        note_failure t rep;
        failed_over := true;
        elapsed := !elapsed +. (Device.elapsed_us device -. t0);
        go ()
  in
  let served_by, rows = go () in
  ( {
      sr_shard = shard_idx;
      sr_served_by = served_by;
      sr_attempts = !attempts;
      sr_hedged = !hedged;
      sr_failed_over = !failed_over;
      sr_elapsed_us = !elapsed;
    },
    rows )

let query t ?exact_post ?bloom_fpr sql =
  match t.single with
  | Some db when t.chaos_hook = None
              && t.f_shards.(0).sh_replicas.(0).forced_down = false ->
    (* The seed path, bit-identical: one device, no fleet machinery. *)
    let r = Ghost_db.query db ?exact_post ?bloom_fpr sql in
    {
      rows = r.Exec.rows;
      row_count = r.Exec.row_count;
      complete = true;
      unreachable = [];
      elapsed_us = r.Exec.elapsed_us;
      shard_reports =
        [ { sr_shard = 0; sr_served_by = Some 0; sr_attempts = 1;
            sr_hedged = false; sr_failed_over = false;
            sr_elapsed_us = r.Exec.elapsed_us } ];
    }
  | _ ->
    let q = bind t sql in
    (* A query over the root's subtree scatters to every shard; one
       that touches only (fully replicated) dimension tables routes to
       a single shard, roaming to the next when no replica serves. *)
    let scatter = List.mem t.root_name q.Bind.tables in
    let reports =
      if scatter then
        Array.to_list
          (Array.mapi
             (fun s _ ->
                let sub = subquery t ~shard:s q in
                let report, rows = exec_shard t s sub ?exact_post ?bloom_fpr () in
                (report, remap t q ~shard:s rows))
             t.f_shards)
      else begin
        let n = Array.length t.f_shards in
        let start = t.rr mod n in
        t.rr <- t.rr + 1;
        let sub = subquery t ~shard:0 q in
        let rec go acc = function
          | [] -> List.rev acc
          | s :: rest ->
            let report, rows = exec_shard t s sub ?exact_post ?bloom_fpr () in
            let acc = (report, rows) :: acc in
            if report.sr_served_by = None then go acc rest else List.rev acc
        in
        go [] (List.init n (fun i -> (start + i) mod n))
      end
    in
    let merged = merge t q (List.concat_map snd reports) in
    let served = List.exists (fun (r, _) -> r.sr_served_by <> None) reports in
    let unreachable =
      if scatter then
        List.filter_map
          (fun (r, _) -> if r.sr_served_by = None then Some r.sr_shard else None)
          reports
      else if served then []
      else List.init (Array.length t.f_shards) (fun i -> i)
    in
    {
      rows = merged;
      row_count = List.length merged;
      complete = unreachable = [];
      unreachable;
      elapsed_us =
        (* scattered shards work in parallel; a roaming read hops
           devices sequentially *)
        (if scatter then
           List.fold_left
             (fun acc (r, _) -> Float.max acc r.sr_elapsed_us)
             0. reports
         else List.fold_left (fun acc (r, _) -> acc +. r.sr_elapsed_us) 0. reports);
      shard_reports = List.map fst reports;
    }

(* ---------- anti-entropy and repair ---------- *)

type repair_report = {
  rr_shard : int;
  rr_replica : int;
  rr_pages : int;
  rr_bad_pages : int;
  rr_repaired : bool;
  rr_repair_us : float;
}

(* One data-independent pass over a replica's structure pages: every
   page is read in full (charged to the replica's own device clock),
   folded into a running CRC-32 digest, and checked — against its
   trailer when the region is authenticated, against the injected-flip
   table otherwise. Returns (pages scanned, bad pages, digest). *)
let scan_replica rep =
  let db = rep.rep_db in
  let flash = Device.flash (Ghost_db.device db) in
  let pages = Catalog.structure_pages (Ghost_db.catalog db) in
  let digest = ref 0 and bad = ref 0 in
  List.iter
    (fun page ->
       let img = Flash.read_page flash page in
       digest := Codec.crc32 ~crc:!digest img ~pos:0 ~len:(Bytes.length img);
       let ok =
         if Flash.authenticated flash then
           match Flash.verify_image flash ~page img with
           | () -> true
           | exception Flash.Integrity_error _ -> false
         else Flash.page_errors flash page = 0
       in
       if not ok then incr bad)
    pages;
  (List.length pages, !bad, !digest)

(* Rebuild [victim] wholesale from [peer]'s logical snapshot, reusing
   the loader (same phased build as a reorganize). The peer must have
   no pending tombstones: a compacting snapshot would renumber root
   ids and desynchronize the shard's order-preserving global id map. *)
let rebuild_from t victim peer =
  if Ghost_db.tombstone_count peer.rep_db <> 0 then
    invalid_arg "Fleet.repair: peer has pending deletes; reorganize it first";
  let peer_device = Ghost_db.device peer.rep_db in
  let t0 = Device.elapsed_us peer_device in
  let rows =
    Reorg.snapshot (Ghost_db.catalog peer.rep_db)
      (Ghost_db.public peer.rep_db)
  in
  let peer_us = Device.elapsed_us peer_device -. t0 in
  let fresh =
    Ghost_db.of_schema
      ~device_config:(Device.config (Ghost_db.device victim.rep_db))
      ?index_hidden_fks:t.f_index_hidden_fks t.f_schema rows
  in
  Ghost_db.set_metrics fresh (Ghost_db.metrics victim.rep_db);
  victim.rep_db <- fresh;
  victim.consecutive_failures <- 0;
  (* rebuilt but not yet trusted: a probe must pass before the picker
     treats it as healthy again *)
  victim.state <- (if victim.forced_down then Dead else Suspect);
  Device.note (Ghost_db.device fresh) Device.Repair_rebuilds;
  peer_us +. Device.elapsed_us (Ghost_db.device fresh)

let repair t ~shard ~replica:victim_idx ~from =
  if from = victim_idx then invalid_arg "Fleet.repair: replica = from";
  let victim = replica t ~shard ~replica:victim_idx in
  let peer = replica t ~shard ~replica:from in
  rebuild_from t victim peer

let anti_entropy t =
  let reports = ref [] in
  Array.iteri
    (fun shard s ->
       let n = Array.length s.sh_replicas in
       if n >= 2 then begin
         let scans =
           Array.map
             (fun rep ->
                if rep.forced_down then None else Some (scan_replica rep))
             s.sh_replicas
         in
         (* the repair source: first reachable replica with every
            trailer intact and no pending tombstones *)
         let healthy =
           let rec find r =
             if r >= n then None
             else
               match scans.(r) with
               | Some (_, 0, _)
                 when Ghost_db.tombstone_count s.sh_replicas.(r).rep_db = 0 ->
                 Some r
               | _ -> find (r + 1)
           in
           find 0
         in
         Array.iteri
           (fun r rep ->
              match scans.(r) with
              | None -> ()
              | Some (pages, bad, digest) ->
                let diverged =
                  match healthy with
                  | Some h when h <> r -> (
                    match scans.(h) with
                    | Some (_, _, hd) -> digest <> hd
                    | None -> false)
                  | _ -> false
                in
                if bad > 0 || diverged then begin
                  let repaired, us =
                    match healthy with
                    | Some h when h <> r ->
                      (true, rebuild_from t rep s.sh_replicas.(h))
                    | _ -> (false, 0.)
                  in
                  reports :=
                    {
                      rr_shard = shard;
                      rr_replica = r;
                      rr_pages = pages;
                      rr_bad_pages = bad;
                      rr_repaired = repaired;
                      rr_repair_us = us;
                    }
                    :: !reports
                end)
           s.sh_replicas
       end)
    t.f_shards;
  List.rev !reports

(* ---------- observability ---------- *)

let fold_devices t f =
  Array.to_list t.f_shards
  |> List.concat_map (fun s ->
       Array.to_list s.sh_replicas
       |> List.map (fun rep -> f (rep.rep_shard, rep.rep_index) rep))

let audits t = fold_devices t (fun key rep -> (key, Ghost_db.audit rep.rep_db))

let audit t =
  let per_device = audits t in
  let violations =
    List.concat_map
      (fun ((s, r), (v : Privacy.verdict)) ->
         List.map
           (fun msg -> Printf.sprintf "shard %d replica %d: %s" s r msg)
           v.Privacy.violations)
      per_device
  in
  let sum f = List.fold_left (fun acc (_, v) -> acc + f v) 0 per_device in
  {
    Privacy.ok = violations = [];
    violations;
    outbound_payload_bytes =
      sum (fun (v : Privacy.verdict) -> v.Privacy.outbound_payload_bytes);
    inbound_bytes = sum (fun (v : Privacy.verdict) -> v.Privacy.inbound_bytes);
    queries_leaked =
      List.sort_uniq compare
        (List.concat_map
           (fun (_, (v : Privacy.verdict)) -> v.Privacy.queries_leaked)
           per_device);
    data_dependent_bits =
      List.fold_left
        (fun acc (_, (v : Privacy.verdict)) ->
           acc +. v.Privacy.data_dependent_bits)
        0. per_device;
    padding_bytes = sum (fun (v : Privacy.verdict) -> v.Privacy.padding_bytes);
  }

let spy_reports t =
  fold_devices t (fun key rep -> (key, Ghost_db.spy_report rep.rep_db))

let clear_traces t =
  ignore (fold_devices t (fun _ rep -> Ghost_db.clear_trace rep.rep_db))

let set_metrics t m =
  ignore (fold_devices t (fun _ rep -> Ghost_db.set_metrics rep.rep_db m))

let flush_metrics t =
  ignore (fold_devices t (fun _ rep -> Ghost_db.flush_metrics rep.rep_db))
