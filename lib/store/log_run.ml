module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash

(* Run page header, sealed by {!Sealed_page}:
     tag (u32) | level (u32) | ordinal (u32) | count (u32) |
     flags (u32, bit 0 = sealed final page) | min_key (u32) |
     max_key (u32) | crc32 (u32). *)
let tag = "GDRN"
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
  pages : page_meta array;
  count : int;
  min_key : int;
  max_key : int;
}

let page_count t = Array.length t.pages
let size_bytes t ~record_bytes = t.count * record_bytes
let key record = Codec.get_u32 (Bytes.unsafe_of_string record) 0

let records_per_page flash ~record_bytes =
  ((Flash.geometry flash).Flash.page_size - header_bytes) / record_bytes

(* ---- building ---- *)

type builder = {
  b_flash : Flash.t;
  b_record_bytes : int;
  b_per_page : int;
  b_level : int;
  mutable b_pending : string list;  (* buffered records, newest first *)
  mutable b_pages : page_meta list;  (* programmed pages, newest first *)
  mutable b_count : int;
  mutable b_last_key : int;  (* -1 before the first record *)
  mutable b_ordinal : int;
}

let start flash ~record_bytes ~level =
  let per_page = records_per_page flash ~record_bytes in
  if per_page < 1 then invalid_arg "Log_run.start: record exceeds a page";
  {
    b_flash = flash;
    b_record_bytes = record_bytes;
    b_per_page = per_page;
    b_level = level;
    b_pending = [];
    b_pages = [];
    b_count = 0;
    b_last_key = -1;
    b_ordinal = 0;
  }

let built_count b = b.b_count
let built_pages b = List.rev_map (fun m -> m.pp_page) b.b_pages
let programmed_records b = b.b_count - List.length b.b_pending

let build_page b ~final records =
  Sealed_page.seal ~tag ~header_bytes
    (fun page ->
       Codec.put_u32 page 4 b.b_level;
       Codec.put_u32 page 8 b.b_ordinal;
       Codec.put_u32 page 12 (List.length records);
       Codec.put_u32 page 16 (if final then flag_final else 0);
       Codec.put_u32 page 20 (key (List.hd records));
       Codec.put_u32 page 24 (key (List.nth records (List.length records - 1))))
    (String.concat "" records)

let flush ?on_program b ~final =
  let records = List.rev b.b_pending in
  let data = build_page b ~final records in
  let page = Flash.append b.b_flash data in
  Option.iter (fun f -> f page) on_program;
  b.b_pages <-
    {
      pp_page = page;
      pp_count = List.length records;
      pp_min = key (List.hd records);
      pp_max = b.b_last_key;
    }
    :: b.b_pages;
  b.b_pending <- [];
  b.b_ordinal <- b.b_ordinal + 1

let add ?on_program b record =
  if String.length record <> b.b_record_bytes then
    invalid_arg "Log_run.add: record width mismatch";
  let k = key record in
  if k < b.b_last_key then invalid_arg "Log_run.add: keys out of order";
  if List.length b.b_pending = b.b_per_page then flush ?on_program b ~final:false;
  b.b_pending <- record :: b.b_pending;
  b.b_count <- b.b_count + 1;
  b.b_last_key <- k

let seal ?on_program b =
  if b.b_count = 0 then invalid_arg "Log_run.seal: empty run";
  (* [add] defers flushing a filled page until the next record, so the
     buffer is never empty here: the seal flag always lands on the
     true last page. *)
  flush ?on_program b ~final:true;
  let pages = Array.of_list (List.rev b.b_pages) in
  {
    level = b.b_level;
    pages;
    count = b.b_count;
    min_key = pages.(0).pp_min;
    max_key = pages.(Array.length pages - 1).pp_max;
  }

(* ---- reading ---- *)

(* Reads one run page back and validates header + CRC. Returns the
   decoded header fields and record payloads, in key order. *)
let parse_page flash ~record_bytes page =
  match Flash.read_page flash page with
  | exception Invalid_argument _ -> None (* erased, e.g. a zero-byte tear *)
  | b ->
    let n = Codec.get_u32 b 12 in
    let per_page = (Bytes.length b - header_bytes) / record_bytes in
    if n < 1 || n > per_page
       || not (Sealed_page.verify ~tag ~header_bytes ~payload_bytes:(n * record_bytes) b)
    then None
    else
      let records =
        List.init n (fun i ->
            Bytes.sub_string b (header_bytes + (i * record_bytes)) record_bytes)
      in
      Some (Codec.get_u32 b 4, Codec.get_u32 b 8, Codec.get_u32 b 16, records)

let iter flash ~record_bytes ?lo ?hi t f =
  let lo = Option.value ~default:min_int lo in
  let hi = Option.value ~default:max_int hi in
  Array.iter
    (fun m ->
       if m.pp_max >= lo && m.pp_min <= hi then begin
         let b =
           Flash.read flash ~page:m.pp_page ~off:header_bytes
             ~len:(m.pp_count * record_bytes)
         in
         for i = 0 to m.pp_count - 1 do
           f (Bytes.sub_string b (i * record_bytes) record_bytes)
         done
       end)
    t.pages

let validate flash ~record_bytes t =
  let n_pages = Array.length t.pages in
  let total = ref 0 in
  let ok = ref (n_pages > 0) in
  Array.iteri
    (fun i m ->
       if !ok then
         match parse_page flash ~record_bytes m.pp_page with
         | Some (level, ordinal, flags, records)
           when level = t.level && ordinal = i
                && List.length records = m.pp_count
                && (flags land flag_final <> 0) = (i = n_pages - 1) ->
           total := !total + m.pp_count
         | _ -> ok := false)
    t.pages;
  !ok && !total = t.count

(* ---- merging ---- *)

type front = {
  f_run : t;
  mutable f_ahead : string list;  (* decoded records of the current page *)
  mutable f_next_page : int;  (* next page ordinal to decode *)
}

type merge = { fronts : front array }

let merge_start runs =
  {
    fronts =
      Array.of_list
        (List.map (fun r -> { f_run = r; f_ahead = []; f_next_page = 0 }) runs);
  }

(* Refill a front's read-ahead from its next page; false when the run
   is exhausted. *)
let refill flash ~record_bytes fr =
  let rec loop () =
    match fr.f_ahead with
    | _ :: _ -> true
    | [] ->
      if fr.f_next_page >= Array.length fr.f_run.pages then false
      else begin
        let m = fr.f_run.pages.(fr.f_next_page) in
        fr.f_next_page <- fr.f_next_page + 1;
        let b =
          Flash.read flash ~page:m.pp_page ~off:header_bytes
            ~len:(m.pp_count * record_bytes)
        in
        fr.f_ahead <-
          List.init m.pp_count (fun i ->
              Bytes.sub_string b (i * record_bytes) record_bytes);
        loop ()
      end
  in
  loop ()

let merge_next flash ~record_bytes m =
  (* Pick the smallest head key; among equal keys the newest input
     (highest index — inputs are ordered oldest first) wins and the
     older duplicates are consumed silently. *)
  let best = ref None in
  Array.iteri
    (fun i fr ->
       if refill flash ~record_bytes fr then begin
         let k = key (List.hd fr.f_ahead) in
         match !best with
         | Some (bk, _) when bk < k -> ()
         | _ -> best := Some (k, i)
       end)
    m.fronts;
  match !best with
  | None -> None
  | Some (k, winner) ->
    let record = ref "" in
    Array.iteri
      (fun i fr ->
         match fr.f_ahead with
         | head :: rest when key head = k ->
           if i = winner then record := head;
           fr.f_ahead <- rest
         | _ -> ())
      m.fronts;
    Some !record
