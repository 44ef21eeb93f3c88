module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash

(* Run page header, sealed by {!Sealed_page}, the same in both streams:
     tag (u32) | level (u32) | ordinal (u32) | count (u32) |
     flags (u32, bit 0 = sealed final page) | min_key (u32) |
     max_key (u32) | crc32 (u32).
   Id pages are tagged "GDRN", value pages "GDRV". A value page's
   payload is its records' value parts, back to back. An id page's
   payload is its records' id fields bit-packed back to back, most
   significant bit first, [id_bits id_widths] bits a record: the key
   as its offset from the run's [min_key], then every other field,
   each in its width from [id_widths]; the last byte is zero-padded. *)
let id_tag = "GDRN"
let value_tag = "GDRV"
let header_bytes = 32
let flag_final = 1

type page_meta = {
  pp_page : int;
  pp_count : int;
  pp_min : int;
  pp_max : int;
}

type t = {
  level : int;
  id_widths : int array;
  value_bytes : int;
  id_pages : page_meta array;
  value_pages : page_meta array;
  count : int;
  min_key : int;
  max_key : int;
}

let page_count t = Array.length t.id_pages + Array.length t.value_pages

let pages t =
  Array.fold_right (fun m acc -> m.pp_page :: acc) t.id_pages
    (Array.fold_right (fun m acc -> m.pp_page :: acc) t.value_pages [])

let id_bits widths = Array.fold_left ( + ) 0 widths
let payload_bytes ~bits n = ((n * bits) + 7) / 8

let stream_bytes ~bits pages =
  Array.fold_left (fun acc m -> acc + payload_bytes ~bits m.pp_count) 0 pages

let size_bytes t =
  stream_bytes ~bits:(id_bits t.id_widths) t.id_pages + (t.count * t.value_bytes)

let records_per_page flash ~record_bits =
  ((Flash.geometry flash).Flash.page_size - header_bytes) * 8 / record_bits

(* ---- building ---- *)

(* One page stream of a run being built: the id parts or the value
   parts of its records, each written straight into the payload of the
   page it is filling. *)
type stream = {
  s_tag : string;
  s_bits : int;  (* bits of one record's part on the page *)
  s_per_page : int;
  s_payload : bytes;  (* the page being filled, zero past its parts *)
  mutable s_buffered : int;
  mutable s_min : int;  (* key of the oldest buffered part *)
  mutable s_pages : page_meta list;  (* programmed pages, newest first *)
  mutable s_ordinal : int;
  mutable s_programmed : int;  (* payload bytes already on Flash *)
}

type builder = {
  b_flash : Flash.t;
  b_level : int;
  b_widths : int array;
  b_ids : stream;
  b_values : stream option;  (* [None] when records carry no value *)
  mutable b_count : int;
  mutable b_min_key : int;  (* key of the first record: the offset base *)
  mutable b_last_key : int;  (* -1 before the first record *)
  mutable b_programs : int;  (* pages programmed, both streams *)
}

let open_stream flash ~tag ~bits =
  let per_page = records_per_page flash ~record_bits:bits in
  if per_page < 1 then invalid_arg "Log_run.start: record exceeds a page";
  {
    s_tag = tag;
    s_bits = bits;
    s_per_page = per_page;
    s_payload = Bytes.make (payload_bytes ~bits per_page) '\000';
    s_buffered = 0;
    s_min = 0;
    s_pages = [];
    s_ordinal = 0;
    s_programmed = 0;
  }

let start flash ~id_widths ~value_bytes ~level =
  if Array.length id_widths = 0 then invalid_arg "Log_run.start: no id field";
  Array.iter
    (fun w -> if w < 1 || w > 32 then invalid_arg "Log_run.start: id width outside 1..32")
    id_widths;
  {
    b_flash = flash;
    b_level = level;
    b_widths = Array.copy id_widths;
    b_ids = open_stream flash ~tag:id_tag ~bits:(id_bits id_widths);
    b_values =
      (if value_bytes = 0 then None
       else Some (open_stream flash ~tag:value_tag ~bits:(8 * value_bytes)));
    b_count = 0;
    b_min_key = 0;
    b_last_key = -1;
    b_programs = 0;
  }

let streams b = b.b_ids :: Option.to_list b.b_values
let value_width b = match b.b_values with Some s -> s.s_bits / 8 | None -> 0
let built_count b = b.b_count
let programmed_pages b = b.b_programs
let programmed_bytes b = List.fold_left (fun acc s -> acc + s.s_programmed) 0 (streams b)

(* Programs the stream's buffered parts as its next page. Every part
   added so far is buffered in both streams until its page fills, so
   the last buffered part of either stream is the builder's last
   record. *)
let flush ?on_program b s ~final =
  let payload = Bytes.sub_string s.s_payload 0 (payload_bytes ~bits:s.s_bits s.s_buffered) in
  let data =
    Sealed_page.seal ~tag:s.s_tag ~header_bytes
      (fun page ->
         Codec.put_u32 page 4 b.b_level;
         Codec.put_u32 page 8 s.s_ordinal;
         Codec.put_u32 page 12 s.s_buffered;
         Codec.put_u32 page 16 (if final then flag_final else 0);
         Codec.put_u32 page 20 s.s_min;
         Codec.put_u32 page 24 b.b_last_key)
      payload
  in
  let page = Flash.append b.b_flash data in
  Option.iter (fun f -> f page) on_program;
  s.s_pages <-
    { pp_page = page; pp_count = s.s_buffered; pp_min = s.s_min; pp_max = b.b_last_key }
    :: s.s_pages;
  s.s_ordinal <- s.s_ordinal + 1;
  s.s_programmed <- s.s_programmed + String.length payload;
  (* the next page's padding bits must read zero *)
  Bytes.fill s.s_payload 0 (Bytes.length s.s_payload) '\000';
  s.s_buffered <- 0;
  b.b_programs <- b.b_programs + 1

let push s k =
  if s.s_buffered = 0 then s.s_min <- k;
  s.s_buffered <- s.s_buffered + 1

let add ?on_program b ~ids ~values =
  if Array.length ids <> Array.length b.b_widths || String.length values <> value_width b
  then invalid_arg "Log_run.add: record width mismatch";
  let k = ids.(0) in
  if k < b.b_last_key then invalid_arg "Log_run.add: keys out of order";
  let base = if b.b_count = 0 then k else b.b_min_key in
  (* the fields as packed: the key as its offset from the run's first key *)
  let field f = if f = 0 then k - base else ids.(f) in
  Array.iteri
    (fun f width ->
       let v = field f in
       if v lsr width <> 0 then
         invalid_arg
           (Printf.sprintf "Log_run.add: id field %d (%d) does not fit %d bits" f v width))
    b.b_widths;
  List.iter
    (fun s -> if s.s_buffered = s.s_per_page then flush ?on_program b s ~final:false)
    (streams b);
  let s = b.b_ids in
  let bit = ref (s.s_buffered * s.s_bits) in
  Array.iteri
    (fun f width ->
       Codec.put_bits s.s_payload ~bit:!bit ~width (field f);
       bit := !bit + width)
    b.b_widths;
  push s k;
  Option.iter
    (fun s ->
       let n = String.length values in
       Bytes.blit_string values 0 s.s_payload (s.s_buffered * n) n;
       push s k)
    b.b_values;
  b.b_count <- b.b_count + 1;
  b.b_min_key <- base;
  b.b_last_key <- k

let seal ?on_program b =
  if b.b_count = 0 then invalid_arg "Log_run.seal: empty run";
  (* [add] defers flushing a filled page until the next record, so
     neither buffer is empty here: the seal flag always lands on each
     stream's true last page. *)
  List.iter (fun s -> flush ?on_program b s ~final:true) (streams b);
  let pages_of s = Array.of_list (List.rev s.s_pages) in
  let id_pages = pages_of b.b_ids in
  {
    level = b.b_level;
    id_widths = b.b_widths;
    value_bytes = value_width b;
    id_pages;
    value_pages = (match b.b_values with Some s -> pages_of s | None -> [||]);
    count = b.b_count;
    min_key = b.b_min_key;
    max_key = id_pages.(Array.length id_pages - 1).pp_max;
  }

(* ---- reading ---- *)

(* Whether a full page image is page [i] of a stream of run [t], whose
   records take [bits] each: the seal verifies, and the header repeats
   the run's level, the page's ordinal, record count and key fences,
   and carries the final flag exactly when [i] is the stream's last
   page. *)
let page_ok t ~tag ~bits (pages : page_meta array) i b =
  let m = pages.(i) in
  Sealed_page.verify ~tag ~header_bytes ~payload_bytes:(payload_bytes ~bits m.pp_count) b
  && Codec.get_u32 b 4 = t.level
  && Codec.get_u32 b 8 = i
  && Codec.get_u32 b 12 = m.pp_count
  && (Codec.get_u32 b 16 land flag_final <> 0) = (i = Array.length pages - 1)
  && Codec.get_u32 b 20 = m.pp_min
  && Codec.get_u32 b 24 = m.pp_max

let id_stream t = (id_tag, id_bits t.id_widths, t.id_pages)
let value_stream t = (value_tag, 8 * t.value_bytes, t.value_pages)

(* Metered read of page [i] of a stream; returns the buffer and the
   offset of the payload in it. On an authenticated Flash
   ([verify_pages]) the whole page is read and checked by [page_ok],
   so a damaged page raises {!Flash.Integrity_error} instead of
   serving its bytes; otherwise only the payload is read. *)
let read_page flash t (tag, bits, pages) i =
  let m = pages.(i) in
  if Flash.authenticated flash then begin
    let b = Flash.read_page flash m.pp_page in
    if not (page_ok t ~tag ~bits pages i b) then
      raise
        (Flash.Integrity_error { page = m.pp_page; what = "log run page seal mismatch" });
    (b, header_bytes)
  end
  else
    ( Flash.read flash ~page:m.pp_page ~off:header_bytes
        ~len:(payload_bytes ~bits m.pp_count),
      0 )

let read_ids flash t i = read_page flash t (id_stream t) i
let read_values flash t i = read_page flash t (value_stream t) i

(* The id fields of the record packed at bit [bit] of [b], decoded
   straight into a fresh id vector, the key restored from its
   offset. *)
let unpack t b ~bit =
  let widths = t.id_widths in
  let ids = Array.make (Array.length widths) 0 in
  let bit = ref bit in
  for f = 0 to Array.length widths - 1 do
    ids.(f) <- Codec.get_bits b ~bit:!bit ~width:widths.(f);
    bit := !bit + widths.(f)
  done;
  ids.(0) <- ids.(0) + t.min_key;
  ids

let iter flash ?lo ?hi ?(values = true) t f =
  let lo = Option.value ~default:min_int lo in
  let hi = Option.value ~default:max_int hi in
  let values = values && t.value_bytes > 0 in
  let bits = id_bits t.id_widths in
  (* The value page holding the run's [k]-th record. The records asked
     for ascend, so each value page is read at most once, and only
     when one of its records is asked for. *)
  let vpage = ref 0 and vfirst = ref 0 and vbuf = ref None in
  let value_at k =
    while k >= !vfirst + t.value_pages.(!vpage).pp_count do
      vfirst := !vfirst + t.value_pages.(!vpage).pp_count;
      incr vpage;
      vbuf := None
    done;
    let b, off =
      match !vbuf with
      | Some v -> v
      | None ->
        let v = read_values flash t !vpage in
        vbuf := Some v;
        v
    in
    (b, off + ((k - !vfirst) * t.value_bytes))
  in
  let first = ref 0 in
  Array.iteri
    (fun i m ->
       if m.pp_max >= lo && m.pp_min <= hi then begin
         let b, off = read_ids flash t i in
         let inside = m.pp_min >= lo && m.pp_max <= hi in
         for r = 0 to m.pp_count - 1 do
           let bit = (8 * off) + (r * bits) in
           if
             inside
             ||
             let k = t.min_key + Codec.get_bits b ~bit ~width:t.id_widths.(0) in
             k >= lo && k <= hi
           then begin
             let ids = unpack t b ~bit in
             if values then begin
               let vb, voff = value_at (!first + r) in
               f ids vb voff
             end
             else f ids Bytes.empty 0
           end
         done
       end;
       first := !first + m.pp_count)
    t.id_pages

let validate flash t =
  let stream (tag, bits, pages) =
    let total = ref 0 in
    let ok = ref true in
    Array.iteri
      (fun i m ->
         if !ok then
           match Flash.read_page flash m.pp_page with
           | exception Invalid_argument _ -> ok := false (* erased, e.g. a zero-byte tear *)
           | b ->
             if page_ok t ~tag ~bits pages i b then total := !total + m.pp_count
             else ok := false)
      pages;
    !ok && !total = t.count
  in
  Array.length t.id_pages > 0
  && stream (id_stream t)
  && (t.value_bytes = 0 || stream (value_stream t))

let page_intact flash t ~page =
  let find (tag, bits, pages) =
    Array.find_mapi
      (fun i m ->
         if m.pp_page <> page then None
         else
           Some
             (Flash.is_programmed flash page
              && page_ok t ~tag ~bits pages i (Flash.read_page flash page)))
      pages
  in
  match find (id_stream t) with
  | Some ok -> Some ok
  | None -> find (value_stream t)

(* ---- merging ---- *)

type front = {
  f_run : t;
  mutable f_ids : int array list;  (* id vectors of the current id page *)
  mutable f_next_id : int;  (* next id page to read *)
  mutable f_values : string list;  (* value parts of the current value page *)
  mutable f_next_value : int;
}

type merge = { fronts : front array }

let merge_start runs =
  {
    fronts =
      Array.of_list
        (List.map
           (fun r ->
              { f_run = r; f_ids = []; f_next_id = 0; f_values = []; f_next_value = 0 })
           runs);
  }

(* Refill a front's id read-ahead from its next id page; false when the
   run is exhausted. *)
let refill flash fr =
  let r = fr.f_run in
  if fr.f_ids = [] && fr.f_next_id < Array.length r.id_pages then begin
    let i = fr.f_next_id in
    fr.f_next_id <- i + 1;
    let b, off = read_ids flash r i in
    let bits = id_bits r.id_widths in
    fr.f_ids <-
      List.init r.id_pages.(i).pp_count (fun k -> unpack r b ~bit:((8 * off) + (k * bits)))
  end;
  fr.f_ids <> []

(* Consumes the front's head record: its id vector, and its value
   part, read from the next value page when the current one is used
   up. *)
let pop flash fr =
  let r = fr.f_run in
  let ids = List.hd fr.f_ids in
  fr.f_ids <- List.tl fr.f_ids;
  if r.value_bytes = 0 then (ids, "")
  else begin
    if fr.f_values = [] then begin
      let i = fr.f_next_value in
      fr.f_next_value <- i + 1;
      let b, off = read_values flash r i in
      fr.f_values <-
        List.init r.value_pages.(i).pp_count (fun k ->
            Bytes.sub_string b (off + (k * r.value_bytes)) r.value_bytes)
    end;
    let values = List.hd fr.f_values in
    fr.f_values <- List.tl fr.f_values;
    (ids, values)
  end

let merge_next flash m =
  (* Pick the smallest head key; among equal keys the newest input
     (highest index — inputs are ordered oldest first) wins and the
     older duplicates are consumed silently. *)
  let best = ref None in
  Array.iteri
    (fun i fr ->
       if refill flash fr then begin
         let k = (List.hd fr.f_ids).(0) in
         match !best with
         | Some (bk, _) when bk < k -> ()
         | _ -> best := Some (k, i)
       end)
    m.fronts;
  match !best with
  | None -> None
  | Some (k, winner) ->
    let record = ref None in
    Array.iteri
      (fun i fr ->
         match fr.f_ids with
         | head :: _ when head.(0) = k ->
           let r = pop flash fr in
           if i = winner then record := Some r
         | _ -> ())
      m.fronts;
    !record
