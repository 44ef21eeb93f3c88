(* Command line of ghostbench: run workloads and report their metrics,
   or compare two sets of saved runs. *)

module Json = Ghost_metrics.Json

let usage =
  "ghostbench [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR] \
   [--smoke]\n\
   ghostbench compare A_DIR... -- B_DIR..."

(* Matches run_seconds in BENCHMARK.json. *)
let default_seconds = 15.

type options = {
  workloads : string list;
  seed : int;
  seconds : float;
  trace : bool;
  out : string option;
  smoke : bool;
  inject_model_error : bool;  (** corrupt one row of write_mix's model *)
}

let num x = Json.Num x

let metrics_json metrics =
  Json.Obj
    (List.map
       (fun (name, value) ->
          let unit = match Spec.find name with Some m -> m.Spec.unit | None -> "count" in
          (name, Json.Obj [ ("value", num value); ("unit", Json.Str unit) ]))
       metrics)

let result_json ~correct ~attempted ~failed metrics =
  Json.Obj
    [
      ("correct", Json.Bool correct);
      ("attempted", num (float_of_int attempted));
      ("failed", num (float_of_int failed));
      ("metrics", metrics_json metrics);
    ]

let write_file path text =
  Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc text;
    Out_channel.output_char oc '\n')

let write_json path json = write_file path (Json.to_string json)

let layers_json (r : Workloads.run) metrics =
  Json.Obj
    [
      ("workload", Json.Str r.Workloads.workload);
      ("metrics", metrics_json metrics);
      ( "self_time",
        Json.Arr
          (List.map
             (fun (name, (calls, total, self)) ->
                Json.Obj
                  [
                    ("layer", Json.Str name);
                    ("calls", num (float_of_int calls));
                    ("total_s", num total);
                    ("self_s", num self);
                  ])
             (Tracer.layers r.Workloads.tracer)) );
    ]

(* Runs one workload and returns the lines to print, the last one the
   JSON result, and whether every check passed. *)
let run_workload o workload =
  let run traced =
    Workloads.run ~inject_model_error:o.inject_model_error ~workload ~seed:o.seed
      ~seconds:o.seconds ~smoke:o.smoke ~traced ()
  in
  let measured = run false in
  let traced = if o.trace then Some (run true) else None in
  let runs = measured :: Option.to_list traced in
  let attempted = List.fold_left (fun n r -> n + r.Workloads.attempted) 0 runs in
  let failed = List.fold_left (fun n r -> n + r.Workloads.failed) 0 runs in
  let correct = failed = 0 in
  let end_to_end = Spec.values Spec.end_to_end measured.Workloads.end_to_end in
  let per_layer =
    match traced with Some traced -> Workloads.per_layer ~measured ~traced | None -> []
  in
  let metrics = if o.trace then per_layer else end_to_end in
  Option.iter
    (fun dir ->
       write_json
         (Filename.concat dir (workload ^ ".json"))
         (Json.Obj
            [
              ("workload", Json.Str workload);
              ("seed", num (float_of_int o.seed));
              ("seconds", num o.seconds);
              ("n_ops", num (float_of_int measured.Workloads.n_ops));
              ("correct", Json.Bool correct);
              ("attempted", num (float_of_int attempted));
              ("failed", num (float_of_int failed));
              ("metrics", metrics_json (end_to_end @ per_layer));
            ]);
       Option.iter
         (fun (t : Workloads.run) ->
            Option.iter
              (fun reg ->
                 write_file
                   (Filename.concat dir (Printf.sprintf "TRACE_%s.json" workload))
                   (Tracer.chrome t.Workloads.tracer ~device:reg))
              t.Workloads.metrics;
            write_json
              (Filename.concat dir (Printf.sprintf "LAYERS_%s.json" workload))
              (layers_json t metrics))
         traced)
    o.out;
  let failures =
    List.concat_map
      (fun r -> List.map (fun f -> Printf.sprintf "# FAIL %s: %s" workload f) r.Workloads.failures)
      runs
  in
  let line (name, value) =
    let unit = match Spec.find name with Some m -> m.Spec.unit | None -> "" in
    Printf.sprintf "%s %s %.6g %s" workload name value unit
  in
  let lines =
    failures
    @ List.map line (("n_ops", float_of_int measured.Workloads.n_ops) :: end_to_end)
    @ List.map line per_layer
    @ [ Json.to_string (result_json ~correct ~attempted ~failed metrics) ]
  in
  (lines, correct)

(* {2 compare} *)

type verdict = Same | Improved | Regressed | Unresolved

let verdict_name = function
  | Same -> "same"
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

(* Relative spread of a set of runs: quartile distance over the median. *)
let spread xs =
  if List.length xs < 2 then 0.
  else
    let q1, _, q3 = Stats.quartiles xs in
    Stats.ratio (q3 -. q1) (Float.abs (Stats.median xs))

(* B against A for one metric. A change beyond the bound in the bad
   direction regresses; a gain counts when it exceeds A's own spread and
   B wins nine tenths of the index-paired runs. When either side spreads
   wider than the bound the verdict is unresolved, unless every run of
   one side beats every run of the other. *)
let verdict ~better ~bound a b =
  let gain x y = match better with Spec.Lower -> x -. y | Spec.Higher -> y -. x in
  let ma = Stats.median a and mb = Stats.median b in
  let change = Stats.ratio (gain ma mb) (Float.abs ma) in
  let all_beat xs ys = List.for_all (fun y -> List.for_all (fun x -> gain x y > 0.) xs) ys in
  let n = min (List.length a) (List.length b) in
  let first xs = List.filteri (fun i _ -> i < n) xs in
  let wins =
    List.length (List.filter (fun (x, y) -> gain x y > 0.) (List.combine (first a) (first b)))
  in
  if Float.max (spread a) (spread b) > bound then
    if all_beat a b then Improved else if all_beat b a then Regressed else Unresolved
  else if -.change > bound then Regressed
  else if change > 0. && change > spread a && 10 * wins >= 9 * n then Improved
  else Same

let load_run dir workload =
  let path = Filename.concat dir (workload ^ ".json") in
  if not (Sys.file_exists path) then None
  else
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> Json.member "metrics" j
    | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let compare_sets a_dirs b_dirs =
  let value run name =
    Option.bind (Json.member name run) (fun m -> Option.bind (Json.member "value" m) Json.to_num)
  in
  let fmt xs =
    if xs = [] then "-"
    else
      let q1, _, q3 =
        if List.length xs < 2 then (List.hd xs, 0., List.hd xs) else Stats.quartiles xs
      in
      Printf.sprintf "%.5g [%.5g, %.5g]" (Stats.median xs) q1 q3
  in
  let header =
    Printf.sprintf "%-19s %-15s %-32s %-32s %8s  %s" "workload" "metric"
      "A median [q1, q3]" "B median [q1, q3]" "change" "verdict"
  in
  let rows =
    List.concat_map
      (fun w ->
         let runs dirs = List.filter_map (fun d -> load_run d w) dirs in
         let ra = runs a_dirs and rb = runs b_dirs in
         if ra = [] || rb = [] then []
         else
           List.filter_map
             (fun (m : Spec.metric) ->
                let va = List.filter_map (fun r -> value r m.Spec.name) ra in
                let vb = List.filter_map (fun r -> value r m.Spec.name) rb in
                if va = [] || vb = [] then None
                else
                  let bound = Option.value ~default:0. m.Spec.bound in
                  let ma = Stats.median va in
                  Some
                    (Printf.sprintf "%-19s %-15s %-32s %-32s %+7.2f%%  %s" w m.Spec.name
                       (fmt va) (fmt vb)
                       (100. *. Stats.ratio (Stats.median vb -. ma) (Float.abs ma))
                       (verdict_name (verdict ~better:m.Spec.better ~bound va vb))))
             Spec.end_to_end)
      Spec.workloads
  in
  header :: rows

(* {2 Entry point} *)

let parse_run args =
  let workloads = ref [] and seed = ref 1 and seconds = ref default_seconds in
  let trace = ref false and out = ref None and smoke = ref false in
  let specs =
    [
      ("--workload", Arg.String (fun w -> workloads := !workloads @ [ w ]),
       "W run one workload (repeatable; default all)");
      ("--seed", Arg.Set_int seed, "N seeds the data set and the op stream");
      ("--seconds", Arg.Set_float seconds, "S size of the timed phase");
      ("--trace", Arg.Int (fun t -> trace := t <> 0),
       "0|1 1 also runs traced and reports the per-layer metrics");
      ("--out", Arg.String (fun d -> out := Some d),
       "DIR write <workload>.json (and TRACE_/LAYERS_ files when traced)");
      ("--smoke", Arg.Set smoke, " tiny data set, about 40 ops per workload");
    ]
  in
  Arg.parse_argv ~current:(ref 0) args (Arg.align specs)
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    usage;
  List.iter
    (fun w ->
       if Workloads.kind_of_name w = None then raise (Arg.Bad ("unknown workload " ^ w)))
    !workloads;
  {
    workloads = (if !workloads = [] then Spec.workloads else !workloads);
    seed = !seed; seconds = !seconds; trace = !trace; out = !out; smoke = !smoke;
    inject_model_error = false;
  }

let main argv =
  match Array.to_list argv with
  | _ :: "compare" :: rest ->
    let rec split a b in_b = function
      | "--" :: tl -> split a b true tl
      | d :: tl -> if in_b then split a (d :: b) true tl else split (d :: a) b false tl
      | [] -> (List.rev a, List.rev b)
    in
    let a, b = split [] [] false rest in
    if a = [] || b = [] then begin
      prerr_endline usage;
      2
    end
    else begin
      List.iter print_endline (compare_sets a b);
      0
    end
  | _ -> (
    match parse_run argv with
    | exception Arg.Help msg -> print_string msg; 0
    | exception Arg.Bad msg -> prerr_string msg; 2
    | o ->
      let rec mkdir_p d =
        if not (Sys.file_exists d) then begin
          mkdir_p (Filename.dirname d);
          Sys.mkdir d 0o755
        end
      in
      Option.iter mkdir_p o.out;
      let ok =
        List.fold_left
          (fun ok w ->
             let lines, correct = run_workload o w in
             List.iter print_endline lines;
             ok && correct)
          true o.workloads
      in
      if ok then 0 else 1)
