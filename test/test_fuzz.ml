(* Robustness fuzzing: the SQL front end must never crash with anything
   but its own typed errors, whatever bytes arrive; and the durable logs
   must recover exactly the acknowledged prefix from a power cut at
   every page position. *)

module Lexer = Ghost_sql.Lexer
module Parser = Ghost_sql.Parser
module Bind = Ghost_sql.Bind
module Medical = Ghost_workload.Medical
module Value = Ghost_kernel.Value
module Rng = Ghost_kernel.Rng
module Flash = Ghost_flash.Flash
module Delta_log = Ghostdb.Delta_log
module Tombstone_log = Ghostdb.Tombstone_log

let schema = lazy (Medical.schema ())

let survives input =
  match Bind.bind (Lazy.force schema) input with
  | _ -> true
  | exception (Lexer.Lex_error _ | Parser.Parse_error _ | Bind.Bind_error _) -> true
  | exception _ -> false

let printable_gen =
  QCheck.Gen.(string_size ~gen:(map Char.chr (int_range 32 126)) (0 -- 80))

let prop_garbage =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"arbitrary printable garbage" ~count:500
       (QCheck.make ~print:Fun.id printable_gen)
       survives)

let prop_any_bytes =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"arbitrary bytes" ~count:300 QCheck.string survives)

(* Mutate valid queries: truncate, duplicate tokens, splice. *)
let prop_mutated_valid =
  let base = Array.of_list (List.map snd Ghost_workload.Queries.all) in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"mutations of valid queries" ~count:400
       QCheck.(triple (int_range 0 1000) small_nat small_nat)
       (fun (pick, cut, splice) ->
          let sql = base.(pick mod Array.length base) in
          let n = String.length sql in
          let truncated = String.sub sql 0 (min n (cut mod (n + 1))) in
          let spliced =
            let at = splice mod (String.length truncated + 1) in
            String.sub truncated 0 at ^ " AND ( % " ^ String.sub truncated at
              (String.length truncated - at)
          in
          survives truncated && survives spliced))

(* Power-loss sweeps: cut the power at every program position of a
   randomized write workload (every page offset and both sides of each
   page boundary) and check the recovery invariant at the acknowledgement
   unit — recovered state = exactly the records of the completed
   programs, no phantom records. Each write is one batch of 1 to
   [max_batch] records; a batch programs once per page it fills and
   once for its last partial page, so crash point [k] tears the
   program that carries the [k]-th page image. *)

let small_flash () =
  (* 256-byte pages, checksummed: 14 delta records (16 B) or 59
     tombstones (4 B) per page, so 120 / 60 crash points span 8+ pages
     of single-record writes *)
  Flash.create ~geometry:{ Flash.page_size = 256; pages_per_block = 8 } ()

(* The records each program of a batch of [n] carries when the tail's
   page already holds [filled] of [rpp]. *)
let programs_of ~rpp ~filled n =
  let rec go room n = if n <= 0 then [] else min room n :: go rpp (n - min room n) in
  go (rpp - filled) n

(* Appends batches until the armed cut tears one, checking the tear
   lands on the program the page model predicts. Returns the
   acknowledged records, oldest first, and the torn program's count. *)
let write_until_cut ~crash_at ~rpp ~next_batch ~append =
  let rec loop acked programs filled =
    let batch = next_batch () in
    let progs = programs_of ~rpp ~filled (List.length batch) in
    let torn = crash_at - programs in
    match append batch with
    | () ->
      if torn <= List.length progs then
        Alcotest.failf "crash@%d: program %d of the batch did not tear" crash_at torn;
      loop (List.rev_append batch acked) (programs + List.length progs)
        ((filled + List.length batch) mod rpp)
    | exception Flash.Power_cut _ ->
      if torn > List.length progs then Alcotest.failf "crash@%d: early tear" crash_at;
      let durable = List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < torn - 1) progs) in
      ( List.rev_append acked (List.filteri (fun i _ -> i < durable) batch),
        List.nth progs (torn - 1) )
  in
  loop [] 0 0

(* [n] draws of [f], in draw order. *)
let draw n f =
  let acc = ref [] in
  for _ = 1 to n do acc := f () :: !acc done;
  List.rev !acc

let check_recovery ~crash_at ~acked ~lost (r : Delta_log.recovery) =
  if r.Delta_log.recovered <> List.length acked then
    Alcotest.failf "crash@%d: recovered %d records, %d were acknowledged" crash_at
      r.Delta_log.recovered (List.length acked);
  if r.Delta_log.lost <> lost then
    Alcotest.failf "crash@%d: lost %d, expected the torn program's %d" crash_at
      r.Delta_log.lost lost

let delta_power_loss_sweep ~max_batch () =
  for crash_at = 1 to 120 do
    let f = small_flash () in
    let log =
      Delta_log.create ~durability:Delta_log.Checksummed f ~table:"R"
        ~levels:[ "R"; "A" ] ~max_ids:[ 9 ] ~hidden_cols:[ ("v", Value.T_int) ]
    in
    let rng = Rng.create (1000 + crash_at) in
    let sizes = Rng.create (5000 + crash_at) in
    let i = ref 0 in
    let next_batch () =
      draw (1 + Rng.int sizes max_batch) (fun () ->
        incr i;
        let v = Rng.int rng 1_000_000 in
        ({ Delta_log.ids = [| !i; Rng.int_in rng 1 9 |]; hidden = [| Value.Int v |] }, v))
    in
    Flash.arm_power_cut f ~after_programs:crash_at;
    let acked, lost =
      write_until_cut ~crash_at ~rpp:14 ~next_batch
        ~append:(fun batch -> Delta_log.append log (List.map fst batch))
    in
    let acked = List.map (fun (r, v) -> (r.Delta_log.ids.(0), v)) acked in
    if Delta_log.acknowledged log <> List.length acked then
      Alcotest.failf "crash@%d: log acknowledges %d records, %d programmed" crash_at
        (Delta_log.acknowledged log) (List.length acked);
    check_recovery ~crash_at ~acked ~lost (Delta_log.recover log);
    let got = ref [] in
    Delta_log.scan log (fun row ->
        let v =
          match row.Delta_log.hidden.(0) with Value.Int v -> v | _ -> -1
        in
        got := (row.Delta_log.ids.(0), v) :: !got);
    if List.rev !got <> acked then
      Alcotest.failf "crash@%d: recovered content differs from acknowledged" crash_at
  done

let tombstone_power_loss_sweep ~max_batch () =
  for crash_at = 1 to 60 do
    let f = small_flash () in
    let log = Tombstone_log.create ~durability:Tombstone_log.Checksummed f ~table:"R" in
    let rng = Rng.create (9000 + crash_at) in
    let sizes = Rng.create (7000 + crash_at) in
    let i = ref 0 in
    let next_batch () =
      draw (1 + Rng.int sizes max_batch) (fun () ->
        let id = (!i * 7919) + 1 + Rng.int rng 3 in
        incr i;
        id)
    in
    Flash.arm_power_cut f ~after_programs:crash_at;
    let acked, lost =
      write_until_cut ~crash_at ~rpp:59 ~next_batch ~append:(Tombstone_log.append log)
    in
    if Tombstone_log.acknowledged log <> List.length acked then
      Alcotest.failf "crash@%d: log acknowledges %d ids, %d programmed" crash_at
        (Tombstone_log.acknowledged log) (List.length acked);
    check_recovery ~crash_at ~acked ~lost (Tombstone_log.recover log);
    let acked = List.sort compare acked in
    let got = Array.to_list (Tombstone_log.load_sorted log) in
    if got <> acked then
      Alcotest.failf "crash@%d: recovered ids differ from acknowledged" crash_at;
    if List.exists (fun id -> not (Tombstone_log.mem log id)) acked then
      Alcotest.failf "crash@%d: membership lost an acknowledged id" crash_at
  done

let suite = [
  prop_garbage;
  prop_any_bytes;
  prop_mutated_valid;
  Alcotest.test_case "delta power-loss sweep (120 crash points)" `Quick
    (delta_power_loss_sweep ~max_batch:1);
  Alcotest.test_case "tombstone power-loss sweep (60 crash points)" `Quick
    (tombstone_power_loss_sweep ~max_batch:1);
  (* batches of 1 record to 3 pages of records *)
  Alcotest.test_case "delta batch power-loss sweep (120 crash points)" `Quick
    (delta_power_loss_sweep ~max_batch:(3 * 14));
  Alcotest.test_case "tombstone batch power-loss sweep (60 crash points)" `Quick
    (tombstone_power_loss_sweep ~max_batch:(3 * 59));
]
