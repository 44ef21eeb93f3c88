(* The metric catalogue: the workloads, metrics, units, directions and
   bounds BENCHMARK.json declares, read from the copy compiled into the
   program. *)

module Json = Ghost_metrics.Json

type better = Lower | Higher

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float option;  (** end-to-end metrics only *)
}

(* The workload names, end-to-end metrics and per-layer metrics of a
   BENCHMARK.json text. *)
let parse text =
  let json =
    match Json.parse text with Ok j -> j | Error e -> failwith ("BENCHMARK.json: " ^ e)
  in
  let fail msg = failwith ("BENCHMARK.json: " ^ msg) in
  let list key =
    match Json.member key json with
    | Some (Json.Arr items) -> items
    | _ -> fail ("no list " ^ key)
  in
  let str k o =
    match Option.bind (Json.member k o) Json.to_str with
    | Some s -> s
    | None -> fail ("missing string " ^ k)
  in
  let metric o =
    let better =
      match str "better" o with
      | "lower" -> Lower
      | "higher" -> Higher
      | s -> fail ("bad direction " ^ s)
    in
    { name = str "name" o; unit = str "unit" o; better;
      bound = Option.bind (Json.member "bound" o) Json.to_num }
  in
  ( List.map (str "name") (list "workloads"),
    List.map metric (list "end_to_end"),
    List.map metric (list "per_layer") )

let workloads, end_to_end, per_layer = parse Benchmark_json.text

let find name = List.find_opt (fun m -> m.name = name) (end_to_end @ per_layer)

(* The value of each of [metrics] among the [computed] ones. A declared
   metric the run did not compute is a bug in the benchmark, not a 0. *)
let values metrics computed =
  List.map
    (fun m ->
       match List.assoc_opt m.name computed with
       | Some v -> (m.name, v)
       | None -> failwith ("metric not computed: " ^ m.name))
    metrics

(* The executor's operator classes, as {!Stats.op_class} names them. *)
let op_classes =
  [
    "receive_query"; "ship_ids"; "ship_padded"; "cross_filter"; "index_lookup";
    "bloom_build"; "merge_index"; "access_skt"; "delta_scan"; "bound_scan";
    "project_join"; "verify"; "project"; "tombstone_load"; "scratch_reclaim";
  ]
