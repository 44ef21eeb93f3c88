(* Order statistics, ratio conventions and the naming rules every
   reported metric follows. *)

(* Host clock: CPU seconds (user + system) of this process. The
   simulator runs on one thread and never waits on I/O, so on an idle
   machine this equals wall time; unlike wall time it does not stretch
   while other processes hold the CPU. *)
let now = Sys.time

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p] percent of the samples at or below it. [nan] on an
   empty array. *)
let percentile a p =
  let n = Array.length a in
  if n = 0 then nan
  else
    let i = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1 in
    a.(max 0 (min (n - 1) i))

(* The highest whole percentile, at most 99, that still leaves ten
   samples beyond it; never below the median. With nearest rank,
   floor (n * (100 - p) / 100) samples lie above the p-th percentile. *)
let tail_percentile n =
  let rec go p =
    if p <= 50 then 50 else if n * (100 - p) >= 1000 then p else go (p - 1)
  in
  go 99

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Quartiles exactly as Python's [statistics.quantiles values ~n:4]
   (the default "exclusive" method) computes them, so the spreads
   [compare] prints are the ones a Python check would find. Needs at
   least two values. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: fewer than two values";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.
  in
  (q 1, q 2, q 3)

(* A ratio whose base was never exercised (no cache accesses, no
   attempts, no inserts) reads 0, not nan: the JSON output carries only
   finite numbers. *)
let ratio num den = if den = 0. then 0. else num /. den

(* Metric and workload names: a letter or digit, then at most 63 more
   letters, digits, '_', '.' or '-'. *)
let valid_name s =
  let ok_char = function
    | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
    | _ -> false
  in
  let n = String.length s in
  n >= 1 && n <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all ok_char s

(* The executor's class of an operator label, as Exec names its
   per-class histograms: the label without its argument in parentheses
   ("ShipIds(Doctor)" -> "ShipIds"). *)
let exec_class label =
  match String.index_opt label '(' with
  | Some i -> String.sub label 0 i
  | None -> label

(* The metric-name form of an executor operator label: the argument in
   parentheses is dropped, camel case and '+' become '_' separators, and
   everything is lowercased ("Merge+Index" -> "merge_index",
   "AccessSKT" -> "access_skt", "ShipIds(Doctor)" -> "ship_ids"). *)
let op_class label =
  let base = exec_class label in
  let b = Buffer.create 16 in
  String.iteri
    (fun i c ->
       match c with
       | 'A' .. 'Z' ->
         if i > 0 && (match base.[i - 1] with 'a' .. 'z' -> true | _ -> false)
         then Buffer.add_char b '_';
         Buffer.add_char b (Char.lowercase_ascii c)
       | '+' -> Buffer.add_char b '_'
       | c -> Buffer.add_char b c)
    base;
  Buffer.contents b
