(* Host speed calibration.

   On a shared machine the same code runs 25 % faster or slower from one
   minute to the next, in CPU time as well as wall time. A fixed kernel
   of allocation, hashing and sorting (the kind of work the simulator's
   host side does), timed in short slices between the measured ops,
   tracks that drift; host times are reported scaled to the speed at
   which one slice takes [reference_s]. The kernel lives here, outside
   the library, so no change to the library can move it. *)

(* One slice on an otherwise idle 2-core x86-64 box. *)
let reference_s = 1.5e-3

let kernel () =
  let h = Hashtbl.create 1024 in
  for i = 0 to 4095 do
    Hashtbl.replace h ((i * 7919) land 65535) (float_of_int i)
  done;
  let a =
    Array.init 4096 (fun i ->
      Option.value ~default:0. (Hashtbl.find_opt h ((i * 7919) land 65535)))
  in
  Array.sort compare a;
  let l = List.init 2048 (fun i -> [| i; i + 1 |]) in
  ignore (Sys.opaque_identity (List.fold_left (fun acc x -> acc + x.(0)) 0 l))

type t = { mutable slices : int; mutable slice_s : float; mutable since : float }

let slice t =
  let t0 = Stats.now () in
  kernel ();
  t.slice_s <- t.slice_s +. (Stats.now () -. t0);
  t.slices <- t.slices + 1

(* Seeds the estimate with a few slices, so even a tiny run has one. *)
let create () =
  let t = { slices = 0; slice_s = 0.; since = 0. } in
  for _ = 1 to 5 do slice t done;
  t

(* Called after [dt] measured host seconds: one slice per 20 ms
   measured, so a long window gets as many as a run of short ones. *)
let tick t dt =
  t.since <- t.since +. dt;
  while t.since >= 0.02 do
    t.since <- t.since -. 0.02;
    slice t
  done

(* [s] host seconds, measured while one slice took [slice_s], as they
   would read at the reference speed. *)
let at_reference ~slice_s s = s *. reference_s /. slice_s

(* Host seconds of the run's measured phase at the reference speed. *)
let normalise t s = at_reference ~slice_s:(t.slice_s /. float_of_int t.slices) s

(* The host seconds [f] takes at the reference speed, calibrated by
   slices run just before and just after it: set-up steps are short, and
   the host's speed can change between them and the measured phase. *)
let time f =
  let probe () =
    let t = { slices = 0; slice_s = 0.; since = 0. } in
    for _ = 1 to 4 do slice t done;
    t.slice_s /. 4.
  in
  let before = probe () in
  let t0 = Stats.now () in
  let r = f () in
  let dt = Stats.now () -. t0 in
  (r, at_reference ~slice_s:((before +. probe ()) /. 2.) dt)
