module Codec = Ghost_kernel.Codec
module Flash = Ghost_flash.Flash
module Page_cache = Ghost_device.Page_cache

type durability =
  | Plain
  | Checksummed

(* Checksummed page header, sealed by {!Sealed_page}:
   tag (u32) | first_seq (u64) | count (u32) | crc32 (u32). *)
let header_bytes = 20

type t = {
  flash : Flash.t;
  tag : string;
  record_bytes : int;
  records_per_page : int;
  durability : durability;
  cache : Page_cache.t option;
      (* the device's page cache, invalidated when an append programs a
         recycled Flash page the cache may still hold *)
  mutable base_seq : int;  (* records released ahead of the first full page *)
  mutable full_pages : int list;  (* reversed *)
  mutable tail : string list;  (* records of the tail page, reversed *)
  mutable tail_page : int option;  (* current (latest) program of the tail *)
  mutable stale_tails : int list;  (* superseded tail programs, newest first *)
  mutable count : int;
  mutable dead_bytes : int;  (* superseded tail programs *)
  mutable needs_recovery : bool;  (* a program was torn by a power cut *)
  mutable torn_page : int option;  (* the page that tore, if known *)
}

let create ?(durability = Plain) ?cache flash ~tag ~record_bytes =
  let page = (Flash.geometry flash).Flash.page_size in
  let usable =
    match durability with
    | Plain -> page
    | Checksummed -> page - header_bytes
  in
  if record_bytes > usable then invalid_arg "Append_log.create: record exceeds a page";
  {
    flash;
    tag;
    record_bytes;
    records_per_page = usable / record_bytes;
    durability;
    cache;
    base_seq = 0;
    full_pages = [];
    tail = [];
    tail_page = None;
    stale_tails = [];
    count = 0;
    dead_bytes = 0;
    needs_recovery = false;
    torn_page = None;
  }

let durability t = t.durability
let records_per_page t = t.records_per_page
let count t = t.count
let size_bytes t = (t.count - t.base_seq) * t.record_bytes
let dead_bytes t = t.dead_bytes
let needs_recovery t = t.needs_recovery
let full_pages t = List.rev t.full_pages
let page_count t =
  List.length t.full_pages + (match t.tail_page with Some _ -> 1 | None -> 0)

let payload_off t =
  match t.durability with Plain -> 0 | Checksummed -> header_bytes

let note_power_cut t page =
  t.needs_recovery <- true;
  t.torn_page <- Some page

(* The bytes of one page image holding [records] (oldest first), whose
   first record carries sequence number [first_seq]. *)
let build_page t ~first_seq records =
  let payload = String.concat "" records in
  match t.durability with
  | Plain -> Bytes.of_string payload
  | Checksummed ->
    Sealed_page.seal ~tag:t.tag ~header_bytes
      (fun b ->
         Codec.put_u64 b 4 first_seq;
         Codec.put_u32 b 12 (List.length records))
      payload

(* Reads a checksummed page back and validates it: tag, plausible
   record count, checksum over header + payload. Returns the first
   sequence number and the records, oldest first. *)
let parse_page t page =
  match Flash.read_page t.flash page with
  | exception Invalid_argument _ -> None  (* erased (e.g. a zero-byte tear) *)
  | b ->
    let n = Codec.get_u32 b 12 in
    if n < 1 || n > t.records_per_page
       || not
            (Sealed_page.verify ~tag:t.tag ~header_bytes
               ~payload_bytes:(n * t.record_bytes) b)
    then None
    else
      Some
        ( Codec.get_u64 b 4,
          List.init n (fun i ->
              Bytes.sub_string b (header_bytes + (i * t.record_bytes)) t.record_bytes) )

let append t record =
  if t.needs_recovery then
    invalid_arg "Append_log.append: log needs recovery after a power cut";
  t.tail <- record :: t.tail;
  t.count <- t.count + 1;
  let n = List.length t.tail in
  (* Program the tail as a fresh page (no in-place writes); the
     previous tail program becomes dead space until reorganization. *)
  (match t.tail_page with
   | Some _ -> t.dead_bytes <- t.dead_bytes + ((n - 1) * t.record_bytes)
   | None -> ());
  let data = build_page t ~first_seq:(t.count - n) (List.rev t.tail) in
  match Flash.append t.flash data with
  | page ->
    (* The append may have recycled an erased page whose old content is
       still resident in the shared cache. *)
    Option.iter (fun c -> Page_cache.invalidate c ~page) t.cache;
    (match t.tail_page with
     | Some old -> t.stale_tails <- old :: t.stale_tails
     | None -> ());
    if n = t.records_per_page then begin
      t.full_pages <- page :: t.full_pages;
      t.tail <- [];
      t.tail_page <- None
    end
    else t.tail_page <- Some page
  | exception (Flash.Power_cut { page; _ } as e) ->
    note_power_cut t page;
    raise e

let release t pages =
  let keep = List.length t.full_pages - pages in
  t.full_pages <- List.filteri (fun i _ -> i < keep) t.full_pages;
  t.base_seq <- t.base_seq + (pages * t.records_per_page)

let read_records t page n =
  Flash.read t.flash ~page ~off:(payload_off t) ~len:(n * t.record_bytes)

let full_page_records t page =
  let b = read_records t page t.records_per_page in
  List.init t.records_per_page (fun i ->
      Bytes.sub_string b (i * t.record_bytes) t.record_bytes)

let iter_pages t f =
  List.iter
    (fun page -> f (read_records t page t.records_per_page) t.records_per_page)
    (List.rev t.full_pages);
  match t.tail_page with
  | Some page ->
    let n = List.length t.tail in
    f (read_records t page n) n
  | None -> ()

type recovery = {
  recovered : int;
  lost : int;
  torn_pages : int;
}

(* After a power cut the volatile state is untrusted: re-scan the
   on-flash pages, keep the longest checksum-valid, sequence-continuous
   prefix, and truncate the in-memory state to it. The record torn
   mid-program (never acknowledged to the caller) is dropped; its
   superseded predecessor page, still programmed, carries the durable
   tail. *)
let recover ?(on_record = ignore) t =
  if t.durability = Plain then
    invalid_arg "Append_log.recover: log is not checksummed (create ~durability:Checksummed)";
  let torn = ref (match t.torn_page with Some _ -> 1 | None -> 0) in
  let old_count = t.count in
  (* Longest valid prefix of the full pages, continuing the released
     sequence. *)
  let rec verify_full acc n = function
    | [] -> (acc, n, true)
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records)
         when first_seq = t.base_seq + (n * t.records_per_page)
              && List.length records = t.records_per_page ->
         List.iter on_record records;
         verify_full (p :: acc) (n + 1) rest
       | _ ->
         incr torn;
         (acc, n, false))
  in
  let full_rev, n_full, full_intact = verify_full [] 0 (List.rev t.full_pages) in
  let expected_seq = t.base_seq + (n_full * t.records_per_page) in
  (* Newest tail program whose sequence continues the full prefix. A
     corrupted full page invalidates everything after it, tail
     included. A valid program of an earlier page (superseded when that
     page filled) is skipped but is not torn. *)
  let candidates =
    if not full_intact then []
    else (match t.tail_page with Some p -> [ p ] | None -> []) @ t.stale_tails
  in
  let rec pick = function
    | [] -> (None, [])
    | p :: rest ->
      (match parse_page t p with
       | Some (first_seq, records) when first_seq = expected_seq ->
         (Some (p, records), rest)
       | Some _ -> pick rest
       | None ->
         incr torn;
         pick rest)
  in
  let tail_winner, older = pick candidates in
  (match tail_winner with
   | Some (page, records) ->
     List.iter on_record records;
     t.tail <- List.rev records;
     t.tail_page <- Some page;
     t.stale_tails <- older;
     t.count <- expected_seq + List.length records
   | None ->
     t.tail <- [];
     t.tail_page <- None;
     t.stale_tails <- [];
     t.count <- expected_seq);
  t.full_pages <- full_rev;
  t.needs_recovery <- false;
  t.torn_page <- None;
  { recovered = t.count; lost = old_count - t.count; torn_pages = !torn }
