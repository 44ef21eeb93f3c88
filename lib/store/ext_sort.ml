module Cursor = Ghost_kernel.Cursor
module Heap = Ghost_kernel.Heap
module Resources = Ghost_kernel.Resources
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

let log2_floor k =
  let rec bits n acc = if n <= 1 then acc else bits (n lsr 1) (acc + 1) in
  max 1 (bits k 0)

let page_size scratch = (Flash.geometry scratch).Flash.page_size

(* A source of records, in the style of Merge_union.source. *)
type source = unit -> bytes Cursor.t * (unit -> unit)

let run_source ~ram ~scratch ~chunk ~record_bytes segment : source =
  fun () ->
    let reader = Pager.Reader.open_ ~ram ~buffer_bytes:chunk scratch segment in
    let pos = ref 0 in
    let len = segment.Pager.length in
    let cursor =
      Cursor.make (fun () ->
        if !pos >= len then None
        else begin
          let b = Pager.Reader.read reader ~off:!pos ~len:record_bytes in
          pos := !pos + record_bytes;
          Some b
        end)
    in
    (cursor, fun () -> Pager.Reader.close reader)

let write_run ~ram ~scratch records n =
  let writer = Pager.Writer.create scratch in
  Ram.with_alloc ram ~label:"sort-run-write-buffer" (page_size scratch) (fun _ ->
      for i = 0 to n - 1 do
        Pager.Writer.append_bytes writer records.(i)
      done);
  Pager.Writer.finish writer

let heap_merge ~cpu ~compare cursors =
  let heap = Heap.create ~cmp:(fun (a, _) (b, _) -> compare a b) in
  List.iter
    (fun c ->
       match Cursor.next c with
       | Some r -> Heap.push heap (r, c)
       | None -> ())
    cursors;
  let log_k = log2_floor (Heap.size heap) in
  Cursor.make (fun () ->
    match Heap.pop heap with
    | None -> None
    | Some (r, c) ->
      cpu log_k;
      (match Cursor.next c with
       | Some r' -> Heap.push heap (r', c)
       | None -> ());
      Some r)

(* Records per in-RAM run: half the free arena, at least 2 records. *)
let ram_run_records ~free ~record_bytes = max 2 (free / 2 / record_bytes)

let fits ~ram ~scratch ~record_bytes ~records =
  let free = Ram.budget ram - Ram.in_use ram in
  let run = ram_run_records ~free ~record_bytes in
  if records < run then run * record_bytes <= free
  else free >= page_size scratch + (2 * max record_bytes 16)

let sort ~ram ~scratch ~resources ?(cpu = fun _ -> ()) ~record_bytes ~compare
    input =
  if record_bytes <= 0 then invalid_arg "Ext_sort.sort: record_bytes <= 0";
  let free = Ram.budget ram - Ram.in_use ram in
  let run_records = ram_run_records ~free ~record_bytes in
  (* A spill writes each run through a page-sized buffer beside the run
     buffer. When the arena cannot hold both, the spilled runs and the
     merge's read buffers shrink to leave it room. *)
  let roomy = (run_records * record_bytes) + page_size scratch <= free in
  let spare = free - page_size scratch in
  (* Run-read buffers (512 bytes) shrink when the arena is tight, so a
     2-way merge always fits (at the price of more Flash seeks). *)
  let chunk =
    let c = max 16 (min 512 (free / 8)) in
    if roomy then c else max 16 (min c (spare / 4))
  in
  let check r =
    if Bytes.length r <> record_bytes then
      invalid_arg
        (Printf.sprintf "Ext_sort.sort: record of %d bytes, expected %d"
           (Bytes.length r) record_bytes);
    r
  in
  let buffer = Array.make run_records Bytes.empty in
  let fill cap =
    let n = ref 0 in
    let rec loop () =
      if !n >= cap then ()
      else
        match Cursor.next input with
        | None -> ()
        | Some r ->
          buffer.(!n) <- check r;
          incr n;
          loop ()
    in
    loop ();
    !n
  in
  let sort_buffer off n =
    let sub = Array.sub buffer off n in
    cpu (n * log2_floor n);
    Array.sort compare sub;
    sub
  in
  let first_cell = Ram.alloc ram ~label:"sort-run" (run_records * record_bytes) in
  let n0 = fill run_records in
  if n0 < run_records then begin
    (* Everything fits: RAM-only sort, no Flash traffic. *)
    Ram.resize ram first_cell (n0 * record_bytes);
    let sorted = sort_buffer 0 n0 in
    Resources.defer resources (fun () -> Ram.free ram first_cell);
    Cursor.of_array sorted
  end
  else begin
    (* In a tight arena the first fill is cut into runs that leave the
       write buffer room: filling charges nothing, so this is the sort
       of a device that sized its runs for the spill from the start. *)
    let per_run = if roomy then run_records else max 2 (spare / record_bytes) in
    if not roomy then Ram.resize ram first_cell (per_run * record_bytes);
    let runs = ref [] in
    let flush off n =
      let sorted = sort_buffer off n in
      runs := write_run ~ram ~scratch sorted n :: !runs
    in
    let rec flush_first off =
      if off < n0 then begin
        let n = min per_run (n0 - off) in
        flush off n;
        flush_first (off + n)
      end
    in
    flush_first 0;
    let rec more () =
      let n = fill per_run in
      if n > 0 then begin
        flush 0 n;
        if n = per_run then more ()
      end
    in
    more ();
    Ram.free ram first_cell;
    let sources =
      List.rev_map (run_source ~ram ~scratch ~chunk ~record_bytes) !runs
    in
    (* Hierarchical k-way merge under the arena's fan-in. *)
    let fan () =
      let free = Ram.budget ram - Ram.in_use ram in
      max 2 (free / 2 / chunk)
    in
    let rec reduce (sources : source list) =
      match sources with
      | [] -> Cursor.empty ()
      | [ s ] ->
        let cursor, close = s () in
        Resources.defer resources close;
        cursor
      | _ ->
        let k = List.length sources in
        let f = fan () in
        if k <= f then begin
          let opened = List.map (fun s -> s ()) sources in
          List.iter (fun (_, close) -> Resources.defer resources close) opened;
          heap_merge ~cpu ~compare (List.map fst opened)
        end
        else begin
          (* an intermediate merge also writes through a page buffer *)
          let f =
            let free = Ram.budget ram - Ram.in_use ram in
            max 2 (min f ((free - page_size scratch) / chunk))
          in
          let rec take n acc rest =
            match n, rest with
            | 0, _ | _, [] -> (List.rev acc, rest)
            | n, x :: tl -> take (n - 1) (x :: acc) tl
          in
          let rec groups acc rest =
            match rest with
            | [] -> List.rev acc
            | _ ->
              let g, rest = take f [] rest in
              groups (g :: acc) rest
          in
          let merged =
            List.map
              (fun group ->
                 let opened = List.map (fun s -> s ()) group in
                 let merged = heap_merge ~cpu ~compare (List.map fst opened) in
                 let writer = Pager.Writer.create scratch in
                 Ram.with_alloc ram ~label:"sort-merge-write-buffer" (page_size scratch)
                   (fun _ ->
                     Cursor.iter (fun r -> Pager.Writer.append_bytes writer r) merged);
                 let segment = Pager.Writer.finish writer in
                 List.iter (fun (_, close) -> close ()) opened;
                 run_source ~ram ~scratch ~chunk ~record_bytes segment)
              (groups [] sources)
          in
          reduce merged
        end
    in
    reduce sources
  end
