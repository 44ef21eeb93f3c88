module Flash = Ghost_flash.Flash
module Rng = Ghost_kernel.Rng
module Wire = Ghost_wire.Wire

type usb_fault = {
  usb_seed : int;
  corrupt_prob : float;
  max_retries : int;
  backoff_us : float;
}

let default_usb_fault = {
  usb_seed = 0;
  corrupt_prob = 0.;
  max_retries = 4;
  backoff_us = 250.0;
}

exception Usb_error of string

type config = {
  ram_budget : int;
  usb_mbit_per_s : float;
  usb_per_message_us : float;
  cpu_mips : float;
  flash_geometry : Flash.geometry;
  flash_cost : Flash.cost;
  flash_fault : Flash.fault_config option;
  usb_fault : usb_fault option;
  durable_logs : bool;
  page_cache_frames : int;
  wire_format : Wire.format;
  verify_pages : bool;
  log_runs : log_runs option;
}

and log_runs = {
  l0_spill_pages : int;
  run_fanout : int;
}

let default_log_runs = { l0_spill_pages = 4; run_fanout = 4 }

let default_config = {
  ram_budget = 64 * 1024;
  usb_mbit_per_s = 12.0;
  usb_per_message_us = 100.0;
  cpu_mips = 50.0;
  flash_geometry = Flash.default_geometry;
  flash_cost = Flash.default_cost;
  flash_fault = None;
  usb_fault = None;
  durable_logs = false;
  page_cache_frames = 0;
  wire_format = Wire.Verbose;
  verify_pages = false;
  log_runs = None;
}

type counter =
  | Flash_bit_flips
  | Flash_ecc_corrected
  | Flash_ecc_uncorrected
  | Flash_program_failures
  | Flash_pages_remapped
  | Flash_bad_blocks
  | Flash_power_cuts
  | Usb_corruptions
  | Usb_retries
  | Records_recovered
  | Records_lost
  | Reorg_checkpoints
  | Reorg_rollbacks
  | Reorg_rollforwards
  | Integrity_errors
  | Integrity_transients
  | Pages_scrubbed
  | Scrub_refreshes
  | Repair_rebuilds
  | Log_spills
  | Log_merges
  | Compaction_pages
  | Records_installed
  | Records_dropped

(* Every counter in slot order, beside its registry name. The seven
   Flash slots come first: [fault_counters] fills them positionally from
   each region's [Flash.fault_stats], and [note] refuses them, so they
   never reach the registry. *)
let table = [|
  (Flash_bit_flips, "flash.bit_flips");
  (Flash_ecc_corrected, "flash.ecc_corrected");
  (Flash_ecc_uncorrected, "flash.ecc_uncorrected");
  (Flash_program_failures, "flash.program_failures");
  (Flash_pages_remapped, "flash.pages_remapped");
  (Flash_bad_blocks, "flash.bad_blocks");
  (Flash_power_cuts, "flash.power_cuts");
  (Usb_corruptions, "usb.corruptions");
  (Usb_retries, "usb.retries");
  (Records_recovered, "recovery.records_recovered");
  (Records_lost, "recovery.records_lost");
  (Reorg_checkpoints, "reorg.checkpoints");
  (Reorg_rollbacks, "reorg.rollbacks");
  (Reorg_rollforwards, "reorg.rollforwards");
  (Integrity_errors, "integrity.errors");
  (Integrity_transients, "integrity.transient_retries");
  (Pages_scrubbed, "scrub.pages");
  (Scrub_refreshes, "scrub.refreshes");
  (Repair_rebuilds, "repair.rebuilds");
  (Log_spills, "compaction.spills");
  (Log_merges, "compaction.merges");
  (Compaction_pages, "compaction.pages_written");
  (Records_installed, "run.records_installed");
  (Records_dropped, "compaction.records_dropped");
|]

let flash_slots = 7
let counters = Array.to_list (Array.map fst table)

let slot c =
  let rec find i = if fst table.(i) = c then i else find (i + 1) in
  find 0

let counter_name c = snd table.(slot c)

type fault_counters = int array

let zero_faults = Array.make (Array.length table) 0

type snapshot = {
  flash : Flash.stats;
  usb_bytes_in : int;
  usb_bytes_out : int;
  usb_us : float;
  cpu_ops : int;
  elapsed : float;
  faults : fault_counters;
  cache : Page_cache.stats;
}

type t = {
  config : config;
  flash : Flash.t;
  scratch : Flash.t;
  ram : Ram.t;
  page_cache : Page_cache.t option;
  trace : Trace.t;
  usb_rng : Rng.t option;
  mutable session_scratch : Flash.t list;
      (* per-session spill regions handed out to the query scheduler;
         their traffic counts toward the device clock like [scratch] *)
  mutable on_tick : (unit -> unit) option;
      (* scheduler hook, invoked after every clock charge on the CPU or
         USB paths; [None] (the serial default) costs one branch *)
  mutable usb_bytes_in : int;
  mutable usb_bytes_out : int;
  mutable usb_us : float;
  mutable counts : fault_counters;
      (* the noted counters, by slot; the Flash slots stay 0. [note]
         replaces the array and never writes into it, so a reading
         can share it *)
  mutable cpu_ops : int;
  mutable metrics : Ghost_metrics.Metrics.t option;
      (* observability registry; [None] (the default) costs one branch
         on the paths that would report into it *)
  mutable published : snapshot option;
      (* device-global totals already flushed into [metrics], so
         [flush_metrics] publishes windows, not lifetime sums *)
  session_spent : (int, float) Hashtbl.t;
      (* per-session virtual clock: device time charged while each
         scheduler session's bracket was open *)
  mutable vclock_session : int option;
  mutable vclock_open_at : float;  (* global clock at bracket open *)
  mutable vclock_offset : float;  (* session_us = elapsed_us + offset *)
  enc : Wire.encoder;
      (* the link's reused encode buffer + label-interning dictionary;
         both wire formats encode through it, so metered byte counts
         are real frame sizes *)
  mutable batch : (Trace.payload * int * Trace.obl option) list ref option;
      (* open coalescing bracket ([with_usb_batch], Compact only):
         messages encoded into the pending frame, newest first *)
}

let create ?(config = default_config) ~trace () =
  let flash =
    Flash.create ~geometry:config.flash_geometry ~cost:config.flash_cost
      ?fault:config.flash_fault ()
  in
  (* Only the main store carries trailers: scratch regions hold
     per-query spill runs that never outlive a session, so sealing
     them would buy nothing and complicate the spill writers. *)
  if config.verify_pages then Flash.set_authenticated flash true;
  let ram = Ram.create ~budget:config.ram_budget in
  {
  config;
  flash;
  scratch =
    Flash.create ~geometry:config.flash_geometry ~cost:config.flash_cost
      ?fault:config.flash_fault ();
  ram;
  page_cache =
    (if config.page_cache_frames > 0 then
       Some (Page_cache.create ~ram flash ~frames:config.page_cache_frames)
     else None);
  trace;
  usb_rng = Option.map (fun f -> Rng.create f.usb_seed) config.usb_fault;
  session_scratch = [];
  on_tick = None;
  usb_bytes_in = 0;
  usb_bytes_out = 0;
  usb_us = 0.;
  counts = zero_faults;
  cpu_ops = 0;
  metrics = None;
  published = None;
  session_spent = Hashtbl.create 16;
  vclock_session = None;
  vclock_open_at = 0.;
  vclock_offset = 0.;
  enc = Wire.encoder ();
  batch = None;
}

let note t ?(by = 1) c =
  let i = slot c in
  if i < flash_slots then
    invalid_arg "Device.note: Flash counters are read off the regions";
  let a = Array.copy t.counts in
  a.(i) <- a.(i) + by;
  t.counts <- a;
  match t.metrics with
  | None -> ()
  | Some m -> Ghost_metrics.Metrics.incr m ~by (snd table.(i))

let config t = t.config
let flash t = t.flash
let scratch t = t.scratch
let ram t = t.ram
let page_cache t = t.page_cache
let trace t = t.trace

let new_scratch_region t =
  let region =
    Flash.create ~geometry:t.config.flash_geometry ~cost:t.config.flash_cost
      ?fault:t.config.flash_fault ()
  in
  t.session_scratch <- region :: t.session_scratch;
  region

let set_on_tick t hook = t.on_tick <- hook

let tick t =
  match t.on_tick with
  | None -> ()
  | Some f -> f ()

let cache_stats t =
  match t.page_cache with
  | Some c -> Page_cache.stats c
  | None -> Page_cache.zero_stats

let cpu t n =
  if n < 0 then invalid_arg "Device.cpu: negative";
  t.cpu_ops <- t.cpu_ops + n;
  tick t

let usb_transfer_us t bytes =
  t.config.usb_per_message_us
  +. (Float.of_int (bytes * 8) /. t.config.usb_mbit_per_s)

type direction = Inbound | Outbound

(* One logical USB frame — a list of messages sharing one transfer.
   Each attempt — the original and every retransmission — is charged
   to the clock, counted against the byte totals and recorded in the
   trace: a spy on the bus sees the retransmitted bytes exactly like
   the first copy. Corruption, retry and backoff operate on the whole
   frame (the receiver rejects a frame on its CRC, so a partial
   delivery is a full retransmission). When the retry budget is
   exhausted the transfer fails. *)
let transfer_frame t dir link msgs ~total =
  let rec attempt k =
    (match dir with
     | Inbound -> t.usb_bytes_in <- t.usb_bytes_in + total
     | Outbound -> t.usb_bytes_out <- t.usb_bytes_out + total);
    t.usb_us <- t.usb_us +. usb_transfer_us t total;
    List.iter
      (fun (payload, bytes, obl) -> Trace.record ?obl t.trace link payload ~bytes)
      msgs;
    let corrupted =
      match t.config.usb_fault, t.usb_rng with
      | Some f, Some rng when f.corrupt_prob > 0. ->
        Rng.float rng 1.0 < f.corrupt_prob
      | _ -> false
    in
    if corrupted then begin
      note t Usb_corruptions;
      let f = Option.get t.config.usb_fault in
      if k >= f.max_retries then
        raise (Usb_error
                 (Printf.sprintf "transfer of %d bytes failed after %d attempts"
                    total (k + 1)))
      else begin
        note t Usb_retries;
        t.usb_us <- t.usb_us +. (f.backoff_us *. Float.of_int (1 lsl k));
        attempt (k + 1)
      end
    end
  in
  attempt 0;
  tick t

let transfer ?obl t dir link payload ~bytes =
  transfer_frame t dir link [ (payload, bytes, obl) ] ~total:bytes

let receive ?obl t payload ~bytes =
  transfer ?obl t Inbound Trace.Pc_to_device payload ~bytes

(* Typed inbound transfers: the message is really encoded (into the
   reused wire buffer), and the metered byte count is the encoded
   frame's exact size. Under [Verbose] the sizes are the seed's by
   construction; under [Compact] a message outside a batch travels as
   its own single-message frame, envelope included. *)
let receive_message t msg payload =
  match t.config.wire_format with
  | Wire.Verbose ->
    let bytes = Wire.encode_verbose t.enc msg in
    transfer t Inbound Trace.Pc_to_device payload ~bytes
  | Wire.Compact ->
    (match t.batch with
     | Some acc ->
       let n = Wire.add_message t.enc msg in
       acc := (payload, n, None) :: !acc
     | None ->
       Wire.begin_frame t.enc;
       ignore (Wire.add_message t.enc msg : int);
       let total = Wire.end_frame t.enc in
       transfer t Inbound Trace.Pc_to_device payload ~bytes:total)

let receive_query t text = receive_message t (Wire.Query text) (Trace.Query_text text)

let receive_id_list t ~table ids =
  receive_message t
    (Wire.Id_list { table; ids })
    (Trace.Id_list { table; count = Array.length ids })

let receive_value_stream t ~table ~column ~ty pairs =
  receive_message t
    (Wire.Value_stream { table; column; ty; pairs })
    (Trace.Value_stream { table; column; count = Array.length pairs })

(* Coalescing bracket: under [Compact] every typed receive inside [f]
   lands in one vectored frame, sent on exit — one per-transfer
   latency, one corruption draw, one retry unit for the burst. The
   frame envelope's bytes are attributed to the first message's trace
   event, so per-event byte sums stay equal to the device byte
   counters. The scheduler's preemption hook is suspended while the
   bracket is open (a vectored submission is one unit of work); the
   frame transfer itself ticks as usual. Under [Verbose], or nested
   inside another bracket, this is just [f ()]. *)
let with_usb_batch t f =
  match t.config.wire_format, t.batch with
  | Wire.Verbose, _ | _, Some _ -> f ()
  | Wire.Compact, None ->
    Wire.begin_frame t.enc;
    let acc = ref [] in
    t.batch <- Some acc;
    let hook = t.on_tick in
    t.on_tick <- None;
    let finish () =
      t.batch <- None;
      t.on_tick <- hook
    in
    (match f () with
     | r ->
       finish ();
       (match List.rev !acc with
        | [] -> ()
        | (p0, n0, o0) :: rest ->
          let total = Wire.end_frame t.enc in
          let body = List.fold_left (fun a (_, n, _) -> a + n) n0 rest in
          transfer_frame t Inbound Trace.Pc_to_device
            ((p0, n0 + (total - body), o0) :: rest)
            ~total);
       r
     | exception e ->
       finish ();
       raise e)

let emit_result ?obl t ~count ~bytes =
  transfer ?obl t Outbound Trace.Device_to_display
    (Trace.Result_tuples { count }) ~bytes

let emit_rows ?obl t ~tys rows =
  let bytes = Wire.encode_rows t.enc ~tys rows in
  emit_result ?obl t ~count:(List.length rows) ~bytes

let emit_ack t = transfer t Outbound Trace.Device_to_pc Trace.Ack ~bytes:1

let emit_reorg_progress t ~phase ~phases =
  transfer t Outbound Trace.Device_to_pc
    (Trace.Reorg_progress { phase; phases }) ~bytes:0

let cpu_time_us t = Float.of_int t.cpu_ops /. t.config.cpu_mips
let usb_time_us t = t.usb_us

let session_scratch_time_us t =
  List.fold_left (fun acc f -> acc +. Flash.time_us f) 0. t.session_scratch

let elapsed_us t =
  Flash.time_us t.flash +. Flash.time_us t.scratch
  +. session_scratch_time_us t +. t.usb_us +. cpu_time_us t

let spent_us t sid =
  match Hashtbl.find_opt t.session_spent sid with Some v -> v | None -> 0.

(* The per-session virtual clock. While a session's bracket is open,
   its virtual time advances with the global clock; while other
   sessions run, it stands still. Operator spans stamped with
   [session_us] therefore measure a session's own device time
   regardless of how the scheduler interleaved it — in serial execution
   (no session set) the offset is 0 and virtual time IS the global
   clock. *)
let set_session t session =
  let now = elapsed_us t in
  (match t.vclock_session with
   | Some sid ->
     Hashtbl.replace t.session_spent sid
       (spent_us t sid +. (now -. t.vclock_open_at))
   | None -> ());
  t.vclock_session <- session;
  t.vclock_open_at <- now;
  t.vclock_offset <-
    (match session with None -> 0. | Some sid -> spent_us t sid -. now);
  Trace.set_session t.trace session

let session_us t = elapsed_us t +. t.vclock_offset

(* [snapshot], [usage_between] and [add_usage] run at every operator
   boundary. No reading is written after it is made, so when nothing
   moved they share arrays instead of allocating; otherwise they copy,
   then loop, with no name or constructor lookups. *)
let add_faults a b =
  if b == zero_faults then a
  else if a == zero_faults then b
  else begin
    let c = Array.copy a in
    for i = 0 to Array.length c - 1 do
      c.(i) <- c.(i) + b.(i)
    done;
    c
  end

let diff_faults ~after ~before =
  if after == before then zero_faults
  else begin
    let d = Array.copy after in
    for i = 0 to Array.length d - 1 do
      d.(i) <- d.(i) - before.(i)
    done;
    d
  end

let no_faults f = Array.for_all (fun n -> n = 0) f
let count f c = f.(slot c)

(* Slots 0-6, in [table] order. *)
let add_flash_faults a region =
  let s = Flash.fault_stats region in
  a.(0) <- a.(0) + s.Flash.bit_flips;
  a.(1) <- a.(1) + s.Flash.ecc_corrected;
  a.(2) <- a.(2) + s.Flash.ecc_uncorrected;
  a.(3) <- a.(3) + s.Flash.program_failures;
  a.(4) <- a.(4) + s.Flash.pages_remapped;
  a.(5) <- a.(5) + s.Flash.bad_blocks_marked;
  a.(6) <- a.(6) + s.Flash.power_cuts

(* A region that never faulted still holds [Flash.zero_fault_stats]
   itself. *)
let fault_free region = Flash.fault_stats region == Flash.zero_fault_stats

let fault_counters (t : t) =
  if fault_free t.flash && fault_free t.scratch
     && List.for_all fault_free t.session_scratch
  then t.counts
  else begin
    let a = Array.copy t.counts in
    add_flash_faults a t.flash;
    add_flash_faults a t.scratch;
    List.iter (add_flash_faults a) t.session_scratch;
    a
  end

let snapshot (t : t) : snapshot = {
  flash =
    List.fold_left
      (fun acc f -> Flash.add_stats acc (Flash.stats f))
      (Flash.add_stats (Flash.stats t.flash) (Flash.stats t.scratch))
      t.session_scratch;
  usb_bytes_in = t.usb_bytes_in;
  usb_bytes_out = t.usb_bytes_out;
  usb_us = t.usb_us;
  cpu_ops = t.cpu_ops;
  elapsed = elapsed_us t;
  faults = fault_counters t;
  cache = cache_stats t;
}

type usage = {
  flash_page_reads : int;
  flash_page_programs : int;
  flash_us : float;
  used_usb_bytes_in : int;
  used_usb_us : float;
  used_cpu_ops : int;
  cpu_us : float;
  total_us : float;
  faults : fault_counters;
  cache : Page_cache.stats;
}

let usage_between t ~(before : snapshot) ~(after : snapshot) =
  let f = Flash.diff_stats ~after:after.flash ~before:before.flash in
  let cpu_ops = after.cpu_ops - before.cpu_ops in
  {
    flash_page_reads = f.Flash.page_reads;
    flash_page_programs = f.Flash.page_programs;
    flash_us = Flash.total_time_us f;
    used_usb_bytes_in = after.usb_bytes_in - before.usb_bytes_in;
    used_usb_us = after.usb_us -. before.usb_us;
    used_cpu_ops = cpu_ops;
    cpu_us = Float.of_int cpu_ops /. t.config.cpu_mips;
    total_us = after.elapsed -. before.elapsed;
    faults = diff_faults ~after:after.faults ~before:before.faults;
    cache = Page_cache.diff_stats ~after:after.cache ~before:before.cache;
  }

let set_metrics t m =
  t.metrics <- m;
  Trace.set_metrics t.trace m;
  Option.iter (fun c -> Page_cache.set_metrics c m) t.page_cache;
  (match m with
   | None -> t.published <- None
   | Some reg ->
     (* A registry can outlive a device (reorganization builds a fresh
        card): shift its time origin so this device's spans land after
        everything already recorded. *)
     Ghost_metrics.Metrics.rebase reg ~clock_now:(elapsed_us t);
     t.published <- Some (snapshot t))

let metrics t = t.metrics

(* Device-global totals are published as window diffs against the last
   flush: Flash reads/programs, USB traffic and CPU ops land as
   counters, component times as gauges. Diffing [snapshot]s keeps the
   totals exact however the scheduler interleaved the work. *)
let flush_metrics t =
  match t.metrics, t.published with
  | Some m, Some before ->
    let after = snapshot t in
    let u = usage_between t ~before ~after in
    let module M = Ghost_metrics.Metrics in
    M.incr m ~by:u.flash_page_reads "device.flash.page_reads";
    M.incr m ~by:u.flash_page_programs "device.flash.page_programs";
    M.add_gauge m "device.flash.us" u.flash_us;
    M.incr m ~by:u.used_usb_bytes_in "device.usb.bytes_in";
    M.incr m ~by:(after.usb_bytes_out - before.usb_bytes_out)
      "device.usb.bytes_out";
    M.add_gauge m "device.usb.us" u.used_usb_us;
    M.incr m ~by:u.used_cpu_ops "device.cpu.ops";
    M.add_gauge m "device.cpu.us" u.cpu_us;
    M.add_gauge m "device.elapsed_us" u.total_us;
    t.published <- Some after
  | _ -> ()

let zero_usage = {
  flash_page_reads = 0;
  flash_page_programs = 0;
  flash_us = 0.;
  used_usb_bytes_in = 0;
  used_usb_us = 0.;
  used_cpu_ops = 0;
  cpu_us = 0.;
  total_us = 0.;
  faults = zero_faults;
  cache = Page_cache.zero_stats;
}

let add_usage a b = {
  flash_page_reads = a.flash_page_reads + b.flash_page_reads;
  flash_page_programs = a.flash_page_programs + b.flash_page_programs;
  flash_us = a.flash_us +. b.flash_us;
  used_usb_bytes_in = a.used_usb_bytes_in + b.used_usb_bytes_in;
  used_usb_us = a.used_usb_us +. b.used_usb_us;
  used_cpu_ops = a.used_cpu_ops + b.used_cpu_ops;
  cpu_us = a.cpu_us +. b.cpu_us;
  total_us = a.total_us +. b.total_us;
  faults = add_faults a.faults b.faults;
  cache = Page_cache.add_stats a.cache b.cache;
}
