(* Benchmark harness: the experiment suite (see DESIGN.md Section 5).
   For every table/figure of the paper it prints the same rows/series
   the paper reports, measured in deterministic simulated device time.
   The simulator's own host time is measured by bench/e2e's ghostbench.

   Usage: main.exe [--full] [--scale tiny|small|medium] [--only E1,E5]
          [--json DIR] [--metrics DIR] [--force] [--list] *)

module Experiments = Ghost_bench.Experiments
module Report = Ghost_bench.Report
module Medical = Ghost_workload.Medical
module Metrics = Ghost_metrics.Metrics

type options = {
  full : bool;
  scale : Medical.scale;
  only : string list option;
  json_dir : string option;
  metrics_dir : string option;
  force : bool;
  list : bool;
}

let parse_args () =
  let full = ref false in
  let scale = ref Medical.small in
  let only = ref None in
  let json_dir = ref None in
  let metrics_dir = ref None in
  let force = ref false in
  let list = ref false in
  let set_scale s =
    scale :=
      match s with
      | "tiny" -> Medical.tiny
      | "small" -> Medical.small
      | "medium" -> Medical.medium
      | "paper" -> Medical.paper
      | _ -> invalid_arg "scale must be tiny|small|medium|paper"
  in
  let set_only s = only := Some (String.split_on_char ',' s) in
  let specs = [
    ("--full", Arg.Set full, " include the 1M-prescription point (E10)");
    ("--scale", Arg.String set_scale, "SCALE tiny|small|medium|paper (default small)");
    ("--only", Arg.String set_only, "IDS comma-separated experiment ids (e.g. E1,E5)");
    ("--json", Arg.String (fun d -> json_dir := Some d),
     "DIR also write each selected report as DIR/BENCH_<id>.json");
    ("--metrics", Arg.String (fun d -> metrics_dir := Some d),
     "DIR for the instrumented experiments (E16-E23), also write \
      DIR/METRICS_<id>.json, DIR/TRACE_<id>.json (Chrome trace) and \
      DIR/CALIBRATION_<id>.txt");
    ("--force", Arg.Set force, " overwrite existing output files");
    ("--list", Arg.Set list, " print experiment ids with descriptions and exit");
  ] in
  Arg.parse (Arg.align specs) (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "GhostDB benchmark harness";
  { full = !full; scale = !scale; only = !only;
    json_dir = !json_dir; metrics_dir = !metrics_dir; force = !force;
    list = !list }

(* Benchmark outputs are results: never clobber a previous run's file
   unless the user asked for it. *)
let refuse_overwrite path =
  Printf.eprintf "main.exe: refusing to overwrite %s (pass --force)\n" path;
  exit 3

let write_json ~force dir report =
  try ignore (Report.write_file ~dir ~force report)
  with Report.Would_overwrite path -> refuse_overwrite path

let write_metrics ~force dir id m =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let write name contents =
    let path = Filename.concat dir name in
    try Report.write_string ~path ~force contents
    with Report.Would_overwrite p -> refuse_overwrite p
  in
  write (Printf.sprintf "METRICS_%s.json" id) (Metrics.to_json m);
  write (Printf.sprintf "TRACE_%s.json" id) (Metrics.to_chrome_trace m);
  write
    (Printf.sprintf "CALIBRATION_%s.txt" id)
    (Format.asprintf "%a" Metrics.pp_calibration (Metrics.calibration_report m))

let list_experiments opts =
  List.iter
    (fun (id, description, _) -> Printf.printf "%-4s %s\n" id description)
    (Experiments.all ~scale:opts.scale ~full:opts.full ())

let print_experiments opts =
  (* One registry per instrumented experiment, created lazily when the
     experiment asks for it (only E16-E23 do). *)
  let registries : (string, Metrics.t) Hashtbl.t = Hashtbl.create 4 in
  let metrics id =
    match opts.metrics_dir with
    | None -> None
    | Some _ ->
      (match Hashtbl.find_opt registries id with
       | Some m -> Some m
       | None ->
         let m = Metrics.create () in
         Hashtbl.add registries id m;
         Some m)
  in
  let reports = Experiments.all ~scale:opts.scale ~full:opts.full ~metrics () in
  let selected =
    match opts.only with
    | None -> reports
    | Some ids ->
      let known = List.map (fun (id, _, _) -> id) reports in
      (match List.filter (fun id -> not (List.mem id known)) ids with
       | [] -> ()
       | unknown ->
         Printf.eprintf
           "main.exe: unknown experiment id%s %s\nValid ids: %s\nUsage: main.exe \
            [--full] [--scale SCALE] [--only IDS] [--json DIR] \
            [--metrics DIR] [--force] [--list]\n"
           (if List.length unknown > 1 then "s" else "")
           (String.concat ", " unknown)
           (String.concat ", " known);
         exit 2);
      List.filter (fun (id, _, _) -> List.mem id ids) reports
  in
  List.iter
    (fun (id, _, thunk) ->
       let report = thunk () in
       print_string (Report.to_string report);
       Option.iter (fun dir -> write_json ~force:opts.force dir report)
         opts.json_dir;
       Option.iter
         (fun dir ->
            Option.iter
              (fun m -> write_metrics ~force:opts.force dir id m)
              (Hashtbl.find_opt registries id))
         opts.metrics_dir)
    selected

let () =
  let opts = parse_args () in
  if opts.list then list_experiments opts else print_experiments opts
