(* The registry is deliberately closure-free: devices holding one are
   marshalled into card images, so every record here is plain data and
   every recording function takes its timestamps from the caller. *)

let gamma = 2.0 ** 0.25
let log_gamma = log gamma
let n_buckets = 256
(* gamma^255 ~ 1.6e19 simulated microseconds — anything the simulator
   can produce lands in a real bucket; the last one is an overflow
   catch-all so [observe] never raises on huge values. *)

type hist = {
  mutable h_count : int;
  mutable h_min : float;
  mutable h_max : float;
  mutable h_sum : float;
  buckets : int array;
}

type span_rec = {
  s_name : string;
  s_cat : string;
  s_pid : int;
  s_tid : int;
  s_args : (string * float) list;
  s_ts : float;  (* already rebased *)
  s_dur : float;
}

type t = {
  counters : (string, int ref) Hashtbl.t;
  gauges : (string, float ref) Hashtbl.t;
  histograms : (string, hist) Hashtbl.t;
  (* per class, samples as (predicted_us, measured_us), newest first *)
  cal : (string, (float * float) list ref) Hashtbl.t;
  mutable spans_rev : span_rec list;
  mutable n_spans : int;
  max_spans : int;
  mutable origin : float;  (* added to every incoming timestamp *)
  mutable max_ts : float;  (* end of the rebased timeline so far *)
}

let create ?(max_spans = 200_000) () =
  {
    counters = Hashtbl.create 64;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 32;
    cal = Hashtbl.create 16;
    spans_rev = [];
    n_spans = 0;
    max_spans;
    origin = 0.0;
    max_ts = 0.0;
  }

(* ---- counters and gauges ---- *)

let incr t ?(by = 1) name =
  match Hashtbl.find_opt t.counters name with
  | Some r -> r := !r + by
  | None -> Hashtbl.replace t.counters name (ref by)

let counter t name =
  match Hashtbl.find_opt t.counters name with Some r -> !r | None -> 0

let add_gauge t name v =
  match Hashtbl.find_opt t.gauges name with
  | Some r -> r := !r +. v
  | None -> Hashtbl.replace t.gauges name (ref v)

let gauge t name =
  Option.map (fun r -> !r) (Hashtbl.find_opt t.gauges name)

(* ---- histograms ---- *)

let bucket_of v =
  if v < 1.0 then 0
  else
    let i = 1 + int_of_float (floor (log v /. log_gamma)) in
    if i >= n_buckets then n_buckets - 1 else i

(* Geometric midpoint of the bucket; exact observed extrema are kept
   separately and used to clamp, so estimates never leave [min, max]. *)
let representative i =
  if i = 0 then 0.5 else gamma ** (float_of_int i -. 0.5)

let observe t name v =
  if v < 0.0 || Float.is_nan v then
    invalid_arg "Metrics.observe: negative or NaN value";
  let h =
    match Hashtbl.find_opt t.histograms name with
    | Some h -> h
    | None ->
      let h =
        {
          h_count = 0;
          h_min = infinity;
          h_max = neg_infinity;
          h_sum = 0.0;
          buckets = Array.make n_buckets 0;
        }
      in
      Hashtbl.replace t.histograms name h;
      h
  in
  h.h_count <- h.h_count + 1;
  if v < h.h_min then h.h_min <- v;
  if v > h.h_max then h.h_max <- v;
  h.h_sum <- h.h_sum +. v;
  let b = bucket_of v in
  h.buckets.(b) <- h.buckets.(b) + 1

let hist_quantile h q =
  if q < 0.0 || q > 1.0 then invalid_arg "Metrics.quantile: q outside [0, 1]";
  if h.h_count = 0 then nan
  else begin
    (* nearest-rank on the bucketed distribution *)
    let rank =
      let r = int_of_float (ceil (q *. float_of_int h.h_count)) in
      if r < 1 then 1 else if r > h.h_count then h.h_count else r
    in
    let est = ref h.h_max in
    (try
       let seen = ref 0 in
       for i = 0 to n_buckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           est := representative i;
           raise Exit
         end
       done
     with Exit -> ());
    let v = !est in
    if v < h.h_min then h.h_min else if v > h.h_max then h.h_max else v
  end

type histogram_stats = {
  count : int;
  min : float;
  max : float;
  sum : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let stats_of h =
  {
    count = h.h_count;
    min = (if h.h_count = 0 then nan else h.h_min);
    max = (if h.h_count = 0 then nan else h.h_max);
    sum = h.h_sum;
    p50 = hist_quantile h 0.50;
    p95 = hist_quantile h 0.95;
    p99 = hist_quantile h 0.99;
  }

let histogram t name =
  Option.map stats_of (Hashtbl.find_opt t.histograms name)

let quantile t name q =
  match Hashtbl.find_opt t.histograms name with
  | None -> None
  | Some h -> if h.h_count = 0 then None else Some (hist_quantile h q)

(* ---- spans ---- *)

let span t ~name ~cat ?(pid = 1) ?(tid = 0) ?(args = []) ~ts ~dur () =
  let ts = t.origin +. ts in
  let fin = ts +. Float.max dur 0.0 in
  if fin > t.max_ts then t.max_ts <- fin;
  if t.n_spans >= t.max_spans then incr t "metrics.spans_dropped"
  else begin
    t.spans_rev <-
      { s_name = name; s_cat = cat; s_pid = pid; s_tid = tid;
        s_args = args; s_ts = ts; s_dur = dur }
      :: t.spans_rev;
    t.n_spans <- t.n_spans + 1
  end

let span_count t = t.n_spans

let rebase t ~clock_now =
  let needed = t.max_ts -. clock_now in
  if needed > t.origin then t.origin <- needed

(* ---- calibration ---- *)

let calibrate t ~cls ~predicted_us ~measured_us =
  match Hashtbl.find_opt t.cal cls with
  | Some r -> r := (predicted_us, measured_us) :: !r
  | None -> Hashtbl.replace t.cal cls (ref [ (predicted_us, measured_us) ])

type calibration_entry = {
  cal_class : string;
  samples : int;
  predicted_us : float;
  measured_us : float;
  rel_error : float;
  flagged : bool;
}

(* A class is flagged past a 2x misprediction. *)
let drift_threshold = 1.0

let calibration_report t =
  Hashtbl.fold (fun cls r acc -> (cls, !r) :: acc) t.cal []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  |> List.map (fun (cls, samples) ->
      (* Sort the samples so the float sums are independent of the
         order sessions happened to retire in. *)
      let samples = List.sort compare samples in
      let pred = List.fold_left (fun a (p, _) -> a +. p) 0.0 samples in
      let meas = List.fold_left (fun a (_, m) -> a +. m) 0.0 samples in
      let rel_error = Float.abs (pred -. meas) /. Float.max meas 1.0 in
      {
        cal_class = cls;
        samples = List.length samples;
        predicted_us = pred;
        measured_us = meas;
        rel_error;
        flagged = rel_error > drift_threshold;
      })

let pp_calibration ppf entries =
  let open Format in
  fprintf ppf "%-28s %8s %14s %14s %9s %s@."
    "operator class" "samples" "predicted us" "measured us" "rel.err" "flag";
  List.iter
    (fun e ->
       fprintf ppf "%-28s %8d %14.1f %14.1f %9.3f %s@."
         e.cal_class e.samples e.predicted_us e.measured_us e.rel_error
         (if e.flagged then "FLAGGED" else "ok"))
    entries;
  let flagged = List.filter (fun e -> e.flagged) entries in
  if entries = [] then fprintf ppf "no calibration samples recorded@."
  else if flagged = [] then
    fprintf ppf "cost model calibrated: all %d classes within threshold@."
      (List.length entries)
  else
    fprintf ppf "COST MODEL DRIFT: %d of %d classes exceed the threshold@."
      (List.length flagged) (List.length entries)

(* ---- exporters ---- *)

let sorted_table fold_value tbl =
  Hashtbl.fold (fun k v acc -> (k, fold_value v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let to_json t =
  let counters =
    sorted_table (fun r -> Json.Num (float_of_int !r)) t.counters
  in
  let gauges = sorted_table (fun r -> Json.Num !r) t.gauges in
  let histograms =
    sorted_table
      (fun h ->
         let s = stats_of h in
         Json.Obj
           [
             ("count", Json.Num (float_of_int s.count));
             ("min", Json.Num s.min);
             ("max", Json.Num s.max);
             ("sum", Json.Num s.sum);
             ("p50", Json.Num s.p50);
             ("p95", Json.Num s.p95);
             ("p99", Json.Num s.p99);
           ])
      t.histograms
  in
  let calibration =
    calibration_report t
    |> List.map (fun e ->
        Json.Obj
          [
            ("class", Json.Str e.cal_class);
            ("samples", Json.Num (float_of_int e.samples));
            ("predicted_us", Json.Num e.predicted_us);
            ("measured_us", Json.Num e.measured_us);
            ("rel_error", Json.Num e.rel_error);
            ("flagged", Json.Bool e.flagged);
          ])
  in
  Json.to_string
    (Json.Obj
       [
         ("version", Json.Num 1.0);
         ("counters", Json.Obj counters);
         ("gauges", Json.Obj gauges);
         ("histograms", Json.Obj histograms);
         ("calibration", Json.Arr calibration);
         ("spans_recorded", Json.Num (float_of_int t.n_spans));
         ( "spans_dropped",
           Json.Num (float_of_int (counter t "metrics.spans_dropped")) );
       ])

let pid_name = function
  | 1 -> "device (global clock)"
  | 2 -> "sessions (virtual clock)"
  | n -> Printf.sprintf "pid %d" n

let to_chrome_trace t =
  let spans = List.rev t.spans_rev in
  let pids =
    List.sort_uniq compare (List.map (fun s -> s.s_pid) spans)
  in
  let metadata =
    List.map
      (fun pid ->
         Json.Obj
           [
             ("name", Json.Str "process_name");
             ("ph", Json.Str "M");
             ("pid", Json.Num (float_of_int pid));
             ("tid", Json.Num 0.0);
             ("args", Json.Obj [ ("name", Json.Str (pid_name pid)) ]);
           ])
      pids
  in
  let events =
    List.map
      (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.s_name);
             ("cat", Json.Str s.s_cat);
             ("ph", Json.Str "X");
             ("pid", Json.Num (float_of_int s.s_pid));
             ("tid", Json.Num (float_of_int s.s_tid));
             ("ts", Json.Num s.s_ts);
             ("dur", Json.Num s.s_dur);
             ( "args",
               Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.s_args) );
           ])
      spans
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (metadata @ events));
         ("displayTimeUnit", Json.Str "ms");
       ])

let clear t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histograms;
  Hashtbl.reset t.cal;
  t.spans_rev <- [];
  t.n_spans <- 0;
  t.max_ts <- 0.0
