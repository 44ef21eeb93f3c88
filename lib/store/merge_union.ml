module Cursor = Ghost_kernel.Cursor
module Heap = Ghost_kernel.Heap
module Codec = Ghost_kernel.Codec
module Resources = Ghost_kernel.Resources
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

type source = unit -> int Cursor.t * (unit -> unit)

let of_array a = fun () -> (Cursor.of_array a, fun () -> ())

(* The RAM charge assumed per open source, and the read buffer of a
   spilled intermediate list. *)
let chunk_bytes = 256

(* Half the free arena is available for merge buffers; the other half
   stays free for the operators downstream of the union. *)
let fan_in ram =
  let free = Ram.budget ram - Ram.in_use ram in
  max 2 (free / 2 / chunk_bytes)

let heap_merge ~cpu cursors =
  let heap = Heap.create ~cmp:(fun (a, _) (b, _) -> Int.compare a b) in
  List.iter
    (fun c ->
       match Cursor.next c with
       | Some id -> Heap.push heap (id, c)
       | None -> ())
    cursors;
  let log_k = Ext_sort.log2_floor (Heap.size heap) in
  let last = ref (-1) in
  let rec pull () =
    match Heap.pop heap with
    | None -> None
    | Some (id, c) ->
      cpu log_k;
      (match Cursor.next c with
       | Some id' -> Heap.push heap (id', c)
       | None -> ());
      if id = !last then pull ()
      else begin
        last := id;
        Some id
      end
  in
  Cursor.make pull

(* Materialize a cursor to scratch as a delta-varint list; returns a
   source reading it back. *)
let spill ~ram ~scratch cursor =
  let writer = Pager.Writer.create scratch in
  let buf = Buffer.create 256 in
  Ram.with_alloc ram ~label:"union-spill-buffer"
    (Flash.geometry scratch).Flash.page_size (fun _ ->
      let prev = ref (-1) in
      Cursor.iter
        (fun id ->
           Codec.put_varint buf (id - !prev - 1);
           prev := id;
           if Buffer.length buf >= 256 then begin
             Pager.Writer.append_buffer writer buf;
             Buffer.clear buf
           end)
        cursor;
      if Buffer.length buf > 0 then Pager.Writer.append_buffer writer buf);
  let segment = Pager.Writer.finish writer in
  fun () ->
    let reader = Pager.Reader.open_ ~ram ~buffer_bytes:chunk_bytes scratch segment in
    ( Id_list.cursor reader ~off:0 ~len:segment.Pager.length,
      fun () -> Pager.Reader.close reader )

let union ~ram ~scratch ~resources ?(cpu = fun _ -> ()) sources =
  match sources with
  | [] -> Cursor.empty ()
  | [ s ] ->
    let cursor, close = s () in
    Resources.defer resources close;
    cursor
  | _ ->
    let rec reduce sources =
      let k = List.length sources in
      let fan = fan_in ram in
      if k <= fan then begin
        let opened = List.map (fun s -> s ()) sources in
        List.iter (fun (_, close) -> Resources.defer resources close) opened;
        heap_merge ~cpu (List.map fst opened)
      end
      else begin
        (* One hierarchical pass: group, merge each group to scratch. *)
        let rec take n acc rest =
          match n, rest with
          | 0, _ | _, [] -> (List.rev acc, rest)
          | n, x :: tl -> take (n - 1) (x :: acc) tl
        in
        let rec groups acc rest =
          match rest with
          | [] -> List.rev acc
          | _ ->
            let g, rest = take fan [] rest in
            groups (g :: acc) rest
        in
        let merged =
          List.map
            (fun group ->
               let opened = List.map (fun s -> s ()) group in
               let merged = heap_merge ~cpu (List.map fst opened) in
               let source = spill ~ram ~scratch merged in
               List.iter (fun (_, close) -> close ()) opened;
               source)
            (groups [] sources)
        in
        reduce merged
      end
    in
    reduce sources
