module Codec = Ghost_kernel.Codec
module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram

type t = {
  flash : Flash.t;
  root : string;
  levels : string array;
  root_count : int;
  row_width : int;
  segment : Pager.segment;
}

let build flash ~root ~levels ~rows =
  (match levels with
   | r :: _ when r = root -> ()
   | _ -> invalid_arg "Skt.build: levels must start with the root");
  let n_levels = List.length levels in
  let w = Pager.Writer.create flash in
  let cell = Bytes.create 4 in
  Array.iteri
    (fun i row ->
       if Array.length row <> n_levels then
         invalid_arg (Printf.sprintf "Skt.build: row %d has %d ids, expected %d" i
                        (Array.length row) n_levels);
       if row.(0) <> i + 1 then
         invalid_arg (Printf.sprintf "Skt.build: row %d has root id %d" i row.(0));
       Array.iter
         (fun id ->
            Codec.put_u32 cell 0 id;
            Pager.Writer.append_bytes w cell)
         row)
    rows;
  {
    flash;
    root;
    levels = Array.of_list levels;
    root_count = Array.length rows;
    row_width = 4 * n_levels;
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
  scratch : Bytes.t;  (* one row, reused across point reads *)
}

let open_reader ?ram ?buffer_bytes ?paged ?cache t =
  {
    skt = t;
    pr = Pager.Reader.open_ ?ram ?buffer_bytes ?paged ?cache t.flash t.segment;
    scratch = Bytes.create t.row_width;
  }

let close_reader r = Pager.Reader.close r.pr

let check_id r id =
  if id < 1 || id > r.skt.root_count then
    invalid_arg (Printf.sprintf "Skt: root id %d out of 1..%d" id r.skt.root_count)

let get r id =
  check_id r id;
  Pager.Reader.read_into r.pr ~off:((id - 1) * r.skt.row_width)
    ~len:r.skt.row_width r.scratch ~pos:0;
  Array.init (Array.length r.skt.levels) (fun i -> Codec.get_u32 r.scratch (4 * i))

let get_level r id ~level =
  check_id r id;
  if level < 0 || level >= Array.length r.skt.levels then
    invalid_arg "Skt.get_level: bad level";
  Pager.Reader.read_into r.pr ~off:(((id - 1) * r.skt.row_width) + (4 * level))
    ~len:4 r.scratch ~pos:0;
  Codec.get_u32 r.scratch 0

let scan r =
  let id = ref 0 in
  Cursor.make (fun () ->
    incr id;
    if !id > r.skt.root_count then None else Some (get r !id))
