module Codec = Ghost_kernel.Codec
module Cursor = Ghost_kernel.Cursor
module Sorted_ids = Ghost_kernel.Sorted_ids

let encode ids =
  let buf = Buffer.create (Array.length ids * 2) in
  (try Sorted_ids.iter_deltas (fun d -> Codec.put_varint buf d) ids
   with Invalid_argument _ ->
     invalid_arg "Id_list.encode: not strictly increasing non-negative");
  Buffer.contents buf

let cursor reader ~off ~len =
  let pos = ref off in
  let stop = off + len in
  let prev = ref (-1) in
  (* A valid varint never spans more than 10 bytes, and get_varint stops
     at its terminator, so one scratch buffer serves every step. *)
  let scratch = Bytes.create 10 in
  Cursor.make (fun () ->
    if !pos >= stop then None
    else begin
      let look = min 10 (stop - !pos) in
      Pager.Reader.read_into reader ~off:!pos ~len:look scratch ~pos:0;
      let delta, next = Codec.get_varint scratch 0 in
      pos := !pos + next;
      let id = !prev + 1 + delta in
      prev := id;
      Some id
    end)

let decode b =
  let acc = ref [] in
  let pos = ref 0 and prev = ref (-1) in
  while !pos < Bytes.length b do
    let delta, next = Codec.get_varint b !pos in
    pos := next;
    let id = !prev + 1 + delta in
    prev := id;
    acc := id :: !acc
  done;
  Array.of_list (List.rev !acc)
