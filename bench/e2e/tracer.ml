(* Host-clock spans around the benchmark's calls into the library, kept
   in memory and written out when the run ends. Every span counts toward
   its layer's totals and self time; the Chrome file keeps the first
   [max_spans] and counts the rest. A disabled tracer only runs the
   wrapped function. Device-clock spans come from the library's own
   [Ghost_metrics.Metrics] registry (see {!chrome}). *)

module Json = Ghost_metrics.Json

type span = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** the request (benchmark op) the span belongs to *)
  name : string;
  t0 : float;  (** host seconds *)
  t1 : float;
}

type frame = { f_id : int; mutable children_s : float }

type layer = { mutable calls : int; mutable total_s : float; mutable self_s : float }

let max_spans = 50_000

type t = {
  enabled : bool;
  mutable spans : span list;
  mutable kept : int;
  mutable dropped : int;
  layers : (string, layer) Hashtbl.t;
  mutable stack : frame list;
  mutable next_id : int;
  mutable req : int;
  origin : float;
}

let create ~enabled =
  { enabled; spans = []; kept = 0; dropped = 0;
    layers = Hashtbl.create 32; stack = []; next_id = 1; req = 0;
    origin = Stats.now () }

(* Starts a new request: spans opened from here on carry its id. *)
let request t = t.req <- t.req + 1

(* A span's self time is its duration minus that of its direct
   children, which nest inside it. *)
let span t name f =
  if not t.enabled then f ()
  else begin
    let frame = { f_id = t.next_id; children_s = 0. } in
    t.next_id <- t.next_id + 1;
    let parent = match t.stack with p :: _ -> p.f_id | [] -> 0 in
    t.stack <- frame :: t.stack;
    let t0 = Stats.now () in
    let finish () =
      let t1 = Stats.now () in
      let d = t1 -. t0 in
      t.stack <- List.tl t.stack;
      (match t.stack with p :: _ -> p.children_s <- p.children_s +. d | [] -> ());
      let l =
        match Hashtbl.find_opt t.layers name with
        | Some l -> l
        | None ->
          let l = { calls = 0; total_s = 0.; self_s = 0. } in
          Hashtbl.replace t.layers name l;
          l
      in
      l.calls <- l.calls + 1;
      l.total_s <- l.total_s +. d;
      l.self_s <- l.self_s +. d -. frame.children_s;
      if t.kept < max_spans then begin
        t.kept <- t.kept + 1;
        t.spans <- { id = frame.f_id; parent; req = t.req; name; t0; t1 } :: t.spans
      end
      else t.dropped <- t.dropped + 1
    in
    Fun.protect ~finally:finish f
  end

(* Mean duration in microseconds of the spans called [name]; 0 when
   there are none. *)
let mean_us t name =
  match Hashtbl.find_opt t.layers name with
  | Some l -> Stats.ratio (l.total_s *. 1e6) (float_of_int l.calls)
  | None -> 0.

(* Per layer name: (calls, total seconds, self seconds). *)
let layers t =
  Hashtbl.fold (fun name l acc -> (name, (l.calls, l.total_s, l.self_s)) :: acc) t.layers []
  |> List.sort compare

(* Chrome trace_event JSON: the device spans of the registry [device]
   (pid 1 the device's global clock, pid 2 each session's virtual
   clock), then the host spans as pid 3. *)
let chrome t ~device =
  let num n = Json.Num (float_of_int n) in
  let device_events =
    let text = Ghost_metrics.Metrics.to_chrome_trace device in
    match Result.map (Json.member "traceEvents") (Json.parse text) with
    | Ok (Some (Json.Arr events)) -> events
    | _ -> invalid_arg "Tracer.chrome: not a Chrome trace"
  in
  let host =
    List.rev_map
      (fun s ->
         Json.Obj
           [
             ("name", Json.Str s.name); ("cat", Json.Str "host"); ("ph", Json.Str "X");
             ("pid", num 3); ("tid", num 1); ("ts", Json.Num ((s.t0 -. t.origin) *. 1e6));
             ("dur", Json.Num ((s.t1 -. s.t0) *. 1e6));
             ( "args",
               Json.Obj [ ("req", num s.req); ("id", num s.id); ("parent", num s.parent) ] );
           ])
      t.spans
  in
  let meta =
    Json.Obj
      [
        ("name", Json.Str "process_name"); ("ph", Json.Str "M"); ("pid", num 3);
        ( "args",
          Json.Obj
            [
              ("name", Json.Str "host CPU clock"); ("spans_dropped", num t.dropped);
              ( "device_spans_dropped",
                num (Ghost_metrics.Metrics.counter device "metrics.spans_dropped") );
            ] );
      ]
  in
  Json.to_string (Json.Obj [ ("traceEvents", Json.Arr ((meta :: device_events) @ host)) ])
