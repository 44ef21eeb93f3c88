module Value = Ghost_kernel.Value
module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Predicate = Ghost_relation.Predicate

type t = {
  flash : Flash.t;
  ty : Value.ty;
  width : int;
  count : int;
  segment : Pager.segment;
}

let build flash ty values =
  let w = Pager.Writer.create flash in
  Array.iter
    (fun v -> Pager.Writer.append_bytes w (Value.encode ty v))
    values;
  {
    flash;
    ty;
    width = Value.ty_width ty;
    count = Array.length values;
    segment = Pager.Writer.finish w;
  }

let ty t = t.ty
let count t = t.count
let width t = t.width
let size_bytes t = t.segment.Pager.length
let segment t = t.segment
let pages t = Array.to_list t.segment.Pager.pages

type reader = {
  store : t;
  pr : Pager.Reader.t;
  scratch : Bytes.t;  (* one encoded value, reused across point reads *)
}

let open_reader ?ram ?buffer_bytes ?paged ?cache t =
  {
    store = t;
    pr = Pager.Reader.open_ ?ram ?buffer_bytes ?paged ?cache t.flash t.segment;
    scratch = Bytes.create t.width;
  }

let close_reader r = Pager.Reader.close r.pr

let get r id =
  if id < 1 || id > r.store.count then
    invalid_arg (Printf.sprintf "Column_store.get: id %d out of 1..%d" id r.store.count);
  Pager.Reader.read_into r.pr ~off:((id - 1) * r.store.width) ~len:r.store.width
    r.scratch ~pos:0;
  Value.decode r.store.ty r.scratch 0

let scan r =
  let id = ref 0 in
  Cursor.make (fun () ->
    incr id;
    if !id > r.store.count then None else Some (!id, get r !id))

let matching_ids r cmp =
  Cursor.filter_map
    (fun (id, v) -> if Predicate.eval cmp v then Some id else None)
    (scan r)
