module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

type t = {
  flash : Flash.t;
  root : string;
  levels : string array;
  widths : int array;  (* bits per level below the root; [widths.(0)] is 0 *)
  offsets : int array;  (* each level's first bit within its row *)
  root_count : int;
  row_width : int;
  segment : Pager.segment;
}

let build flash ~root ~levels ~max_ids ~rows =
  (match levels with
   | r :: _ :: _ when r = root -> ()
   | r :: _ when r = root -> invalid_arg "Skt.build: no level below the root"
   | _ -> invalid_arg "Skt.build: levels must start with the root");
  let n_levels = List.length levels in
  if List.length max_ids <> n_levels - 1 then
    invalid_arg "Skt.build: max_ids misaligned with the levels below the root";
  if List.exists (fun m -> m < 0 || m > 0xFFFF_FFFF) max_ids then
    invalid_arg "Skt.build: a largest id outside 0..2^32-1";
  (* the root id is the row's position: it takes no bits *)
  let max_ids = Array.of_list (0 :: max_ids) in
  let widths = Array.mapi (fun l m -> if l = 0 then 0 else Codec.bits_for m) max_ids in
  let offsets = Array.make n_levels 0 in
  for i = 1 to n_levels - 1 do
    offsets.(i) <- offsets.(i - 1) + widths.(i - 1)
  done;
  let row_bits = offsets.(n_levels - 1) + widths.(n_levels - 1) in
  let row_width = (row_bits + 7) / 8 in
  let w = Pager.Writer.create flash in
  let cell = Bytes.create row_width in
  Array.iteri
    (fun i row ->
       if Array.length row <> n_levels then
         invalid_arg (Printf.sprintf "Skt.build: row %d has %d ids, expected %d" i
                        (Array.length row) n_levels);
       if row.(0) <> i + 1 then
         invalid_arg (Printf.sprintf "Skt.build: row %d has root id %d" i row.(0));
       Bytes.fill cell 0 row_width '\000';
       for l = 1 to n_levels - 1 do
         let id = row.(l) in
         if id < 1 || id > max_ids.(l) then
           invalid_arg
             (Printf.sprintf "Skt.build: row %d has id %d at level %d, outside 1..%d" i
                id l max_ids.(l));
         Codec.put_bits cell ~bit:offsets.(l) ~width:widths.(l) id
       done;
       Pager.Writer.append_bytes w cell)
    rows;
  {
    flash;
    root;
    levels = Array.of_list levels;
    widths;
    offsets;
    root_count = Array.length rows;
    row_width;
    segment = Pager.Writer.finish w;
  }

let root t = t.root
let levels t = Array.to_list t.levels

let level_index t name =
  let rec loop i =
    if i >= Array.length t.levels then raise Not_found
    else if t.levels.(i) = name then i
    else loop (i + 1)
  in
  loop 0

let root_count t = t.root_count
let row_width t = t.row_width
let size_bytes t = t.segment.Pager.length
let pages t = Array.to_list t.segment.Pager.pages

type reader = {
  skt : t;
  pr : Pager.Reader.t;
  scratch : Bytes.t;
      (* one row, reused across point reads, plus 7 spare bytes so
         [Codec.get_bits] loads every field in one 64-bit read *)
}

let open_reader ?ram ?buffer_bytes ?paged ?cache t =
  {
    skt = t;
    pr = Pager.Reader.open_ ?ram ?buffer_bytes ?paged ?cache t.flash t.segment;
    scratch = Bytes.make (t.row_width + 7) '\000';
  }

let close_reader r = Pager.Reader.close r.pr

let get r id =
  let t = r.skt in
  if id < 1 || id > t.root_count then
    invalid_arg (Printf.sprintf "Skt: root id %d out of 1..%d" id t.root_count);
  Pager.Reader.read_into r.pr ~off:((id - 1) * t.row_width) ~len:t.row_width r.scratch
    ~pos:0;
  let row = Array.make (Array.length t.levels) id in
  for l = 1 to Array.length row - 1 do
    row.(l) <- Codec.get_bits r.scratch ~bit:t.offsets.(l) ~width:t.widths.(l)
  done;
  row
