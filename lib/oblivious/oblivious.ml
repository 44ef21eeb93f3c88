module Trace = Ghost_device.Trace

type mode =
  | Off
  | Pad
  | Full

let mode_name = function
  | Off -> "baseline"
  | Pad -> "pad-only"
  | Full -> "oblivious"

(* ---- padding bounds ---- *)

let next_pow2 n =
  let n = max 1 n in
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let pad_count ~bound n =
  if n < 0 then invalid_arg "Oblivious.pad_count: negative count";
  if n > bound then
    invalid_arg
      (Printf.sprintf "Oblivious.pad_count: count %d exceeds public bound %d" n
         bound);
  if bound <= 0 then 0 else min (next_pow2 n) bound

let bucket_values ~bound =
  if bound <= 1 then 1
  else begin
    (* the powers of two <= bound, plus the cap itself when it is not
       a power of two: pad_count over 0..bound hits exactly these *)
    let rec powers p acc = if p > bound then acc else powers (p * 2) (acc + 1) in
    let pow2s = powers 1 0 in
    if next_pow2 bound = bound then pow2s else pow2s + 1
  end

let bits_of_values values =
  if values <= 1 then 0. else log (Float.of_int values) /. log 2.

let event_bits (e : Trace.event) =
  match e.Trace.obl with
  | None -> 0.
  | Some o -> bits_of_values o.Trace.obl_values

let select ?session trace =
  match session with
  | None -> Trace.events trace
  | Some s -> Trace.session_events trace s

let trace_bits ?session trace =
  List.fold_left (fun acc e -> acc +. event_bits e) 0. (select ?session trace)

(* ---- empirical entropy ---- *)

module Entropy = struct
  let of_weights weights =
    let ws = List.filter (fun w -> w > 0.) weights in
    let total = List.fold_left ( +. ) 0. ws in
    if total <= 0. then 0.
    else
      List.fold_left
        (fun acc w ->
           let p = w /. total in
           acc -. (p *. (log p /. log 2.)))
        0. ws

  let of_observations obs =
    let tbl = Hashtbl.create 16 in
    List.iter
      (fun o ->
         Hashtbl.replace tbl o
           (1 + Option.value ~default:0 (Hashtbl.find_opt tbl o)))
      obs;
    of_weights (Hashtbl.fold (fun _ n acc -> Float.of_int n :: acc) tbl [])
end

(* ---- trace fingerprints ---- *)

let payload_shape = function
  | Trace.Query_text q -> Printf.sprintf "query[%dB]" (String.length q)
  | Trace.Id_list { table; count } -> Printf.sprintf "ids(%s)x%d" table count
  | Trace.Value_stream { table; column; count } ->
    Printf.sprintf "stream(%s.%s)x%d" table column count
  | Trace.Result_tuples { count } -> Printf.sprintf "result x%d" count
  | Trace.Ack -> "ack"
  | Trace.Cache_stats _ -> "cache-stats"
  | Trace.Reorg_progress { phase; phases } ->
    Printf.sprintf "reorg %d/%d" phase phases

let fingerprint ?session trace =
  let events =
    List.filter
      (fun (e : Trace.event) -> Trace.spy_visible e.Trace.link)
      (select ?session trace)
  in
  let buf = Buffer.create 256 in
  List.iteri
    (fun i (e : Trace.event) ->
       Buffer.add_string buf
         (Printf.sprintf "#%d %s %s %dB\n" i
            (Trace.link_name e.Trace.link)
            (payload_shape e.Trace.payload)
            e.Trace.bytes))
    events;
  Buffer.contents buf
