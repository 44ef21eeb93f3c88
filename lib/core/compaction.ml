module Device = Ghost_device.Device

type t = {
  cat : Catalog.t;
  mutable spills : int;
  mutable merges : int;
  mutable pages_written : int;
  mutable records_dropped : int;
}

type progress = {
  spills : int;
  merges : int;
  pages_written : int;
  records_dropped : int;
}

(* Run pages programmed per slice. *)
let max_pages = 2

let create cat =
  { cat; spills = 0; merges = 0; pages_written = 0; records_dropped = 0 }

(* Tables with pending compaction, by name: deterministic slice order
   (only the schema root carries a delta log today, but the walk is
   general). *)
let pending_tables t =
  Hashtbl.fold
    (fun table log acc ->
       if Delta_log.compaction_pending log then (table, log) :: acc else acc)
    t.cat.Catalog.deltas []
  |> List.sort compare

let idle t = pending_tables t = []

let step t =
  match pending_tables t with
  | [] -> false
  | (table, log) :: _ ->
    let drop =
      match Catalog.tombstone t.cat table with
      | Some ts -> fun id -> Tombstone_log.mem ts id
      | None -> fun _ -> false
    in
    (match Delta_log.compact_step ~drop log ~max_pages with
     | Delta_log.Idle -> false
     | Delta_log.Worked -> true
     | Delta_log.Installed i ->
       t.pages_written <- t.pages_written + i.Delta_log.inst_pages;
       t.records_dropped <- t.records_dropped + i.Delta_log.inst_dropped;
       let device = t.cat.Catalog.device in
       if i.Delta_log.inst_spill then begin
         t.spills <- t.spills + 1;
         Device.note device Device.Log_spills
       end
       else begin
         t.merges <- t.merges + 1;
         Device.note device Device.Log_merges
       end;
       Device.note device ~by:i.Delta_log.inst_pages Device.Compaction_pages;
       Device.note device ~by:i.Delta_log.inst_records Device.Records_installed;
       Device.note device ~by:i.Delta_log.inst_dropped Device.Records_dropped;
       true)

let run_pending t =
  while step t do
    ()
  done

let progress (t : t) =
  {
    spills = t.spills;
    merges = t.merges;
    pages_written = t.pages_written;
    records_dropped = t.records_dropped;
  }
