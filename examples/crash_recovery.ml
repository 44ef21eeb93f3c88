(* Crash recovery: the power fails mid-insert, tearing a Flash page.

   With [durable_logs] the delta / tombstone logs use checksummed pages
   (DESIGN.md §9). An insert batch programs once per log page it
   touches, and each completed program acknowledges its rows: after the
   cut, [Ghost_db.recover] scans the log, discards the torn program, and
   restores exactly the acknowledged rows — the public store already
   mirrors them — then life goes on.

   dune exec examples/crash_recovery.exe *)

module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device
module Medical = Ghost_workload.Medical
module Queries = Ghost_workload.Queries
module Ghost_db = Ghostdb.Ghost_db
module Exec = Ghostdb.Exec

let scale = Medical.tiny

let fresh_prescriptions db rng n =
  let next = scale.Medical.prescriptions + Ghost_db.delta_count db + 1 in
  List.init n (fun i ->
    [|
      Value.Int (next + i);
      Value.Int (Rng.int_in rng 1 10);
      Value.Int (Rng.int_in rng 1 4);
      Value.Date (Rng.int_in rng Medical.date_lo Medical.date_hi);
      Value.Int (1 + Rng.int rng scale.Medical.medicines);
      Value.Int (1 + Rng.int rng scale.Medical.visits);
    |])

let count_prescriptions db =
  match (Ghost_db.query db "SELECT COUNT(*) FROM Prescription Pre").Exec.rows with
  | [ [| Value.Int n |] ] -> n
  | _ -> assert false

let () =
  let rng = Rng.create 1789 in
  let config = { Device.default_config with Device.durable_logs = true } in
  let db =
    Ghost_db.of_schema ~device_config:config (Medical.schema ())
      (Medical.generate scale)
  in
  Printf.printf "loaded %d prescriptions (durable logs on)\n"
    (count_prescriptions db);

  Ghost_db.insert db (fresh_prescriptions db rng 10);
  Printf.printf "inserted 10 new prescriptions; total %d\n"
    (count_prescriptions db);

  (* The next batch fills the rest of the log's open page (39 records
     fit a 2 KiB page) and spills into a fresh one; the power fails
     during that second page program. *)
  Flash.arm_power_cut (Device.flash (Ghost_db.device db)) ~after_programs:2;
  (try
     Ghost_db.insert db (fresh_prescriptions db rng 40);
     print_endline "unreachable"
   with Flash.Power_cut { page; programmed } ->
     Printf.printf "\n*** power cut: page %d torn after %d bytes ***\n" page
       programmed);
  Printf.printf "needs recovery: %b\n" (Ghost_db.needs_recovery db);
  (try ignore (Ghost_db.reorganize db)
   with Failure msg -> Printf.printf "reorganize refused: %s\n" msg);

  let r = Ghost_db.recover db in
  Printf.printf
    "\nrecovered: %d delta records durable, %d lost (never acknowledged), %d \
     torn page(s)\n"
    r.Ghost_db.delta_recovered r.Ghost_db.delta_lost
    (r.Ghost_db.delta_torn_pages + r.Ghost_db.tombstone_torn_pages);
  Printf.printf "total prescriptions after recovery: %d\n"
    (count_prescriptions db);

  Ghost_db.insert db (fresh_prescriptions db rng 5);
  Printf.printf "inserts resume: total %d\n" (count_prescriptions db);
  let f = Device.fault_counters (Ghost_db.device db) in
  Printf.printf "device counters: %d power cut(s), %d recovered, %d lost\n"
    (Device.count f Device.Flash_power_cuts)
    (Device.count f Device.Records_recovered)
    (Device.count f Device.Records_lost);

  (* Now the power fails *during* reorganization. With durable logs the
     rebuild runs as a checkpointed shadow build (DESIGN.md §9.4): the
     old image stays live, and recovery rolls the rebuild forward from
     the last journaled checkpoint instead of starting over. *)
  Ghost_db.insert db (fresh_prescriptions db rng 5);
  let before = count_prescriptions db in
  Flash.arm_power_cut (Device.flash (Ghost_db.device db)) ~after_programs:4;
  (try
     ignore (Ghost_db.reorganize db);
     print_endline "unreachable"
   with Flash.Power_cut _ ->
     print_endline "\n*** power cut mid-reorganization ***");
  (try Ghost_db.insert db (fresh_prescriptions db rng 1)
   with Failure msg -> Printf.printf "insert refused: %s\n" msg);
  let r = Ghost_db.recover db in
  let db =
    match r.Ghost_db.reorg with
    | Some (Ghost_db.Reorg_completed { db; phases_reused; phases_redone }) ->
      Printf.printf
        "rolled forward: %d journaled phase(s) reused, %d redone\n"
        phases_reused phases_redone;
      db
    | Some (Ghost_db.Reorg_rolled_back { journal_records }) ->
      Printf.printf "rolled back (%d journal records); old image live\n"
        journal_records;
      Ghost_db.reorganize db
    | None -> db
  in
  Printf.printf "reorganized: %d prescriptions (was %d), %d pending\n"
    (count_prescriptions db) before (Ghost_db.delta_count db)
