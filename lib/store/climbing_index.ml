module Value = Ghost_kernel.Value
module Codec = Ghost_kernel.Codec
module Cursor = Ghost_kernel.Cursor
module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Predicate = Ghost_relation.Predicate

let chunk_bytes = 256
let level_slot = 16  (* count u32 | off u64 | len u32 *)

type t = {
  flash : Flash.t;
  table : string;
  column : string option;
  levels : string array;
  dense : bool;
  entry_count : int;
  entry_width : int;
  directory : Pager.segment;
  keys : Pager.segment;  (* empty for dense *)
  lists : Pager.segment;
}

(* ---- full-key records (sorted mode) ---- *)

let tag_of_value = function
  | Value.Int _ -> 1
  | Value.Date _ -> 2
  | Value.Float _ -> 3
  | Value.Str _ -> 4
  | Value.Null -> invalid_arg "Climbing_index: NULL key"

let append_full_key buf v =
  Buffer.add_char buf (Char.chr (tag_of_value v));
  match v with
  | Value.Int i | Value.Date i ->
    let b = Bytes.create 8 in
    Codec.put_u64 b 0 i;
    Buffer.add_bytes buf b
  | Value.Float f ->
    let b = Bytes.create 8 in
    Bytes.set_int64_be b 0 (Int64.bits_of_float f);
    Buffer.add_bytes buf b
  | Value.Str s -> Codec.put_string16 buf s
  | Value.Null -> assert false

let read_full_key reader off =
  let head = Pager.Reader.read reader ~off ~len:(min 3 (Pager.Reader.length reader - off)) in
  match Bytes.get_uint8 head 0 with
  | 1 ->
    let b = Pager.Reader.read reader ~off:(off + 1) ~len:8 in
    Value.Int (Codec.get_u64 b 0)
  | 2 ->
    let b = Pager.Reader.read reader ~off:(off + 1) ~len:8 in
    Value.Date (Codec.get_u64 b 0)
  | 3 ->
    let b = Pager.Reader.read reader ~off:(off + 1) ~len:8 in
    Value.Float (Int64.float_of_bits (Bytes.get_int64_be b 0))
  | 4 ->
    let len = (Bytes.get_uint8 head 1 lsl 8) lor Bytes.get_uint8 head 2 in
    Value.Str (Bytes.to_string (Pager.Reader.read reader ~off:(off + 3) ~len))
  | tag -> invalid_arg (Printf.sprintf "Climbing_index: corrupt key tag %d" tag)

(* ---- building ---- *)

let check_levels levels =
  if levels = [] then invalid_arg "Climbing_index: empty levels"

let append_locator buf ~count ~off ~len =
  let b = Bytes.create level_slot in
  Codec.put_u32 b 0 count;
  Codec.put_u64 b 4 off;
  Codec.put_u32 b 12 len;
  Buffer.add_bytes buf b

let encode_lists ~lists_buf lists =
  (* Returns the locator slots (as a closure appending them). *)
  Array.map
    (fun ids ->
       let off = Buffer.length lists_buf in
       let encoded = Id_list.encode ids in
       Buffer.add_string lists_buf encoded;
       (Array.length ids, off, String.length encoded))
    lists

let build_sorted flash ~table ~column ~levels entries =
  check_levels levels;
  let n_levels = List.length levels in
  let dir_buf = Buffer.create 4096 in
  let keys_buf = Buffer.create 4096 in
  let lists_buf = Buffer.create 4096 in
  let prev = ref None in
  List.iter
    (fun (v, lists) ->
       (match !prev with
        | Some p when Value.compare p v >= 0 ->
          invalid_arg "Climbing_index.build_sorted: entries not sorted/distinct"
        | Some _ | None -> ());
       prev := Some v;
       if Array.length lists <> n_levels then
         invalid_arg "Climbing_index.build_sorted: lists misaligned with levels";
       Buffer.add_bytes dir_buf (Value.key_prefix v);
       let key_off = Buffer.length keys_buf in
       append_full_key keys_buf v;
       let b = Bytes.create 8 in
       Codec.put_u64 b 0 key_off;
       Buffer.add_bytes dir_buf b;
       let locators = encode_lists ~lists_buf lists in
       Array.iter
         (fun (count, off, len) -> append_locator dir_buf ~count ~off ~len)
         locators)
    entries;
  {
    flash;
    table;
    column = Some column;
    levels = Array.of_list levels;
    dense = false;
    entry_count = List.length entries;
    entry_width = 24 + (level_slot * n_levels);
    directory = Pager.write_segment flash (Buffer.contents dir_buf);
    keys = Pager.write_segment flash (Buffer.contents keys_buf);
    lists = Pager.write_segment flash (Buffer.contents lists_buf);
  }

let build_dense flash ~table ~count ~levels lists_of_id =
  check_levels levels;
  let n_levels = List.length levels in
  let dir_buf = Buffer.create 4096 in
  let lists_buf = Buffer.create 4096 in
  for id = 1 to count do
    let lists = lists_of_id id in
    if Array.length lists <> n_levels then
      invalid_arg "Climbing_index.build_dense: lists misaligned with levels";
    let locators = encode_lists ~lists_buf lists in
    Array.iter
      (fun (cnt, off, len) -> append_locator dir_buf ~count:cnt ~off ~len)
      locators
  done;
  {
    flash;
    table;
    column = None;
    levels = Array.of_list levels;
    dense = true;
    entry_count = count;
    entry_width = level_slot * n_levels;
    directory = Pager.write_segment flash (Buffer.contents dir_buf);
    keys = { Pager.pages = [||]; length = 0 };
    lists = Pager.write_segment flash (Buffer.contents lists_buf);
  }

(* ---- introspection ---- *)

let table t = t.table
let column t = t.column
let levels t = Array.to_list t.levels

let level_pos t name =
  let rec loop i =
    if i >= Array.length t.levels then raise Not_found
    else if t.levels.(i) = name then i
    else loop (i + 1)
  in
  loop 0

let entry_count t = t.entry_count

let size_bytes t =
  t.directory.Pager.length + t.keys.Pager.length + t.lists.Pager.length

let directory_bytes t = t.directory.Pager.length + t.keys.Pager.length

let pages t =
  Array.to_list t.directory.Pager.pages
  @ Array.to_list t.keys.Pager.pages
  @ Array.to_list t.lists.Pager.pages

(* ---- lookups ---- *)

type locator = {
  loc_count : int;
  loc_off : int;
  loc_len : int;
}

let read_locator t dir_reader ~entry ~level =
  let base =
    (entry * t.entry_width) + (if t.dense then 0 else 24) + (level * level_slot)
  in
  let b = Pager.Reader.read dir_reader ~off:base ~len:level_slot in
  { loc_count = Codec.get_u32 b 0; loc_off = Codec.get_u64 b 4; loc_len = Codec.get_u32 b 12 }

let make_source t ~ram ?cache { loc_off; loc_len; _ } : Merge_union.source =
  fun () ->
    if loc_len = 0 then (Cursor.empty (), fun () -> ())
    else begin
      let reader =
        Pager.Reader.open_ ~ram ~buffer_bytes:chunk_bytes ?cache t.flash t.lists
      in
      (Id_list.cursor reader ~off:loc_off ~len:loc_len, fun () -> Pager.Reader.close reader)
    end

(* Compare the key of directory entry [i] against probe value [v]. *)
let compare_entry t ~dir_reader ~keys_reader i v =
  let prefix = Pager.Reader.read dir_reader ~off:(i * t.entry_width) ~len:16 in
  let c = Bytes.compare prefix (Value.key_prefix v) in
  if c <> 0 then c
  else begin
    let off_b = Pager.Reader.read dir_reader ~off:((i * t.entry_width) + 16) ~len:8 in
    let key = read_full_key keys_reader (Codec.get_u64 off_b 0) in
    Value.compare key v
  end

(* First entry index whose key is >= v (strict = false) or > v
   (strict = true). *)
let bound t ~dir_reader ~keys_reader ~strict v =
  let lo = ref 0 and hi = ref t.entry_count in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let c = compare_entry t ~dir_reader ~keys_reader mid v in
    let before = if strict then c <= 0 else c < 0 in
    if before then lo := mid + 1 else hi := mid
  done;
  !lo

let with_dir_readers ~ram ?cache t f =
  if t.dense then invalid_arg "Climbing_index: sorted lookup on a dense index";
  Pager.with_reader ~ram ~buffer_bytes:chunk_bytes ?cache t.flash t.directory (fun dir ->
    Pager.with_reader ~ram ~buffer_bytes:chunk_bytes ?cache t.flash t.keys (fun keys ->
      f ~dir ~keys))

(* Folds [f] over the locators of the entries [cmp] selects at
   [level], in key order, without reading any list: the selection
   behind both {!lookup_cmp} and {!count_cmp}. A range first
   binary-searches its bounds, then reads the run's locators through
   fresh directory readers. *)
let fold_cmp ~ram ?cache t cmp ~level f init =
  let lvl = level_pos t level in
  let bounds g = with_dir_readers ~ram ?cache t g in
  let bound_of ~strict v =
    bounds (fun ~dir ~keys -> bound t ~dir_reader:dir ~keys_reader:keys ~strict v)
  in
  let eq acc v =
    with_dir_readers ~ram ?cache t (fun ~dir ~keys ->
      let i = bound t ~dir_reader:dir ~keys_reader:keys ~strict:false v in
      if i < t.entry_count && compare_entry t ~dir_reader:dir ~keys_reader:keys i v = 0
      then f acc (read_locator t dir ~entry:i ~level:lvl)
      else acc)
  in
  let range ?(exclude = fun _ -> false) first last_exclusive =
    with_dir_readers ~ram ?cache t (fun ~dir ~keys ->
      ignore keys;
      let acc = ref init in
      for i = first to last_exclusive - 1 do
        if not (exclude i) then acc := f !acc (read_locator t dir ~entry:i ~level:lvl)
      done;
      !acc)
  in
  match cmp with
  | Predicate.Eq v -> eq init v
  | Predicate.In vs -> List.fold_left eq init (List.sort_uniq Value.compare vs)
  | Predicate.Ne v ->
    let eq_idx =
      bounds (fun ~dir ~keys ->
        let i = bound t ~dir_reader:dir ~keys_reader:keys ~strict:false v in
        if i < t.entry_count && compare_entry t ~dir_reader:dir ~keys_reader:keys i v = 0
        then Some i
        else None)
    in
    range ~exclude:(fun i -> Some i = eq_idx) 0 t.entry_count
  | Predicate.Lt v -> range 0 (bound_of ~strict:false v)
  | Predicate.Le v -> range 0 (bound_of ~strict:true v)
  | Predicate.Gt v -> range (bound_of ~strict:true v) t.entry_count
  | Predicate.Ge v -> range (bound_of ~strict:false v) t.entry_count
  | Predicate.Between (lo, hi) ->
    let first, last =
      bounds (fun ~dir ~keys ->
        ( bound t ~dir_reader:dir ~keys_reader:keys ~strict:false lo,
          bound t ~dir_reader:dir ~keys_reader:keys ~strict:true hi ))
    in
    range first last
  | Predicate.Prefix p ->
    let lo = Value.Str p in
    let first, last =
      bounds (fun ~dir ~keys ->
        ( bound t ~dir_reader:dir ~keys_reader:keys ~strict:false lo,
          match Predicate.prefix_upper p with
          | Some u ->
            bound t ~dir_reader:dir ~keys_reader:keys ~strict:false (Value.Str u)
          | None -> t.entry_count ))
    in
    range first last

let lookup_cmp ~ram ?cache t cmp ~level =
  fold_cmp ~ram ?cache t cmp ~level (fun acc loc -> make_source t ~ram ?cache loc :: acc) []
  |> List.rev

let lookup_eq ~ram ?cache t v ~level =
  match lookup_cmp ~ram ?cache t (Predicate.Eq v) ~level with
  | [ s ] -> Some s
  | _ -> None

let count_cmp ~ram ?cache t cmp ~level =
  fold_cmp ~ram ?cache t cmp ~level
    (fun (entries, ids) loc -> (entries + 1, ids + loc.loc_count))
    (0, 0)

let count_eq ~ram ?cache t v ~level = snd (count_cmp ~ram ?cache t (Predicate.Eq v) ~level)

let lookup_id ~ram ?cache t id ~level : Merge_union.source =
  if not t.dense then invalid_arg "Climbing_index.lookup_id: not a dense index";
  let lvl = level_pos t level in
  if id < 1 || id > t.entry_count then fun () -> (Cursor.empty (), fun () -> ())
  else
    fun () ->
      let loc =
        Pager.with_reader ~ram ~buffer_bytes:chunk_bytes ?cache t.flash t.directory
          (fun dir -> read_locator t dir ~entry:(id - 1) ~level:lvl)
      in
      (make_source t ~ram ?cache loc) ()
