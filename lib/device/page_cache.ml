module Flash = Ghost_flash.Flash

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  invalidations : int;
}

let zero_stats = { hits = 0; misses = 0; evictions = 0; invalidations = 0 }

let add_stats a b = {
  hits = a.hits + b.hits;
  misses = a.misses + b.misses;
  evictions = a.evictions + b.evictions;
  invalidations = a.invalidations + b.invalidations;
}

let diff_stats ~after ~before = {
  hits = after.hits - before.hits;
  misses = after.misses - before.misses;
  evictions = after.evictions - before.evictions;
  invalidations = after.invalidations - before.invalidations;
}

type t = {
  flash : Flash.t;
  page_size : int;
  n_frames : int;
  data : Bytes.t array;  (* frame -> page image *)
  page_of : int array;  (* frame -> resident flash page, -1 when empty *)
  referenced : bool array;  (* clock / second-chance bits *)
  frame_of : (int, int) Hashtbl.t;  (* flash page -> frame *)
  mutable hand : int;
  ram : Ram.t;
  mutable cell : Ram.cell option;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable metrics : Ghost_metrics.Metrics.t option;
}

let create ~ram flash ~frames =
  if frames <= 0 then invalid_arg "Page_cache.create: frames <= 0";
  let page_size = (Flash.geometry flash).Flash.page_size in
  let cell = Ram.alloc ram ~label:"page-cache" (frames * page_size) in
  {
    flash;
    page_size;
    n_frames = frames;
    data = Array.init frames (fun _ -> Bytes.make page_size '\000');
    page_of = Array.make frames (-1);
    referenced = Array.make frames false;
    frame_of = Hashtbl.create (2 * frames);
    hand = 0;
    ram;
    cell = Some cell;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    metrics = None;
  }

let set_metrics t m = t.metrics <- m

let metric t ?by name =
  match t.metrics with
  | None -> ()
  | Some m -> Ghost_metrics.Metrics.incr m ?by name

let flash t = t.flash
let frames t = t.n_frames
let frame_bytes t = t.n_frames * t.page_size
let resident t = Hashtbl.length t.frame_of

let stats t = {
  hits = t.hits;
  misses = t.misses;
  evictions = t.evictions;
  invalidations = t.invalidations;
}

let check t = if t.cell = None then invalid_arg "Page_cache: closed"

(* Second chance: sweep the clock hand, clearing reference bits, until
   a frame without one comes up. An empty frame is claimed outright. *)
let victim t =
  let rec sweep () =
    let f = t.hand in
    t.hand <- (t.hand + 1) mod t.n_frames;
    if t.page_of.(f) < 0 then f
    else if t.referenced.(f) then begin
      t.referenced.(f) <- false;
      sweep ()
    end
    else f
  in
  sweep ()

(* The frame holding [page], filling (and possibly evicting) on a miss.
   The fill is a full-page Flash read: that is the metered cost of a
   cache miss; hits cost no Flash time at all. *)
let frame_for t ~verify page =
  match Hashtbl.find_opt t.frame_of page with
  | Some f ->
    t.hits <- t.hits + 1;
    metric t "cache.hits";
    t.referenced.(f) <- true;
    f
  | None ->
    t.misses <- t.misses + 1;
    metric t "cache.misses";
    let image = Flash.read_page t.flash page in
    (* Verify before victim selection: a corrupt image must never be
       installed in a frame, where later hits would serve it silently. *)
    if verify then Flash.verify_image t.flash ~page image;
    let f = victim t in
    if t.page_of.(f) >= 0 then begin
      t.evictions <- t.evictions + 1;
      metric t "cache.evictions";
      Hashtbl.remove t.frame_of t.page_of.(f)
    end;
    Bytes.blit image 0 t.data.(f) 0 t.page_size;
    t.page_of.(f) <- page;
    t.referenced.(f) <- true;
    Hashtbl.replace t.frame_of page f;
    f

let read ?(verify = false) t ~page ~off ~len dst ~pos =
  check t;
  if off < 0 || len < 0 || off + len > t.page_size then
    invalid_arg "Page_cache.read: range out of page bounds";
  let f = frame_for t ~verify page in
  Bytes.blit t.data.(f) off dst pos len

let invalidate t ~page =
  match Hashtbl.find_opt t.frame_of page with
  | None -> ()
  | Some f ->
    Hashtbl.remove t.frame_of page;
    t.page_of.(f) <- -1;
    t.referenced.(f) <- false;
    t.invalidations <- t.invalidations + 1;
    metric t "cache.invalidations"

let clear t =
  t.invalidations <- t.invalidations + Hashtbl.length t.frame_of;
  metric t ~by:(Hashtbl.length t.frame_of) "cache.invalidations";
  Hashtbl.reset t.frame_of;
  Array.fill t.page_of 0 t.n_frames (-1);
  Array.fill t.referenced 0 t.n_frames false;
  t.hand <- 0

let close t =
  match t.cell with
  | None -> ()
  | Some c ->
    Hashtbl.reset t.frame_of;
    Array.fill t.page_of 0 t.n_frames (-1);
    t.cell <- None;
    Ram.free t.ram c
