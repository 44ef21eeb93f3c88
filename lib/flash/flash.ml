module Rng = Ghost_kernel.Rng
module Codec = Ghost_kernel.Codec

type geometry = {
  page_size : int;
  pages_per_block : int;
}

let default_geometry = { page_size = 2048; pages_per_block = 64 }

type cost = {
  read_seek_us : float;
  read_byte_us : float;
  program_seek_us : float;
  program_byte_us : float;
  erase_us : float;
}

(* Full-page read: 25 + 2048*0.025 ~ 76 us; full-page program:
   200 + 2048*0.09 ~ 384 us, i.e. ~5x a read. Erase ~1.5 ms. These are
   typical small-block NAND figures of the paper's era. *)
let default_cost = {
  read_seek_us = 25.0;
  read_byte_us = 0.025;
  program_seek_us = 200.0;
  program_byte_us = 0.09;
  erase_us = 1500.0;
}

let cost_with_write_ratio r =
  if r <= 0. then invalid_arg "Flash.cost_with_write_ratio";
  let g = default_geometry in
  let read_full =
    default_cost.read_seek_us +. (Float.of_int g.page_size *. default_cost.read_byte_us)
  in
  let target = r *. read_full in
  (* Keep the seek/byte split of the default program cost. *)
  let base =
    default_cost.program_seek_us
    +. (Float.of_int g.page_size *. default_cost.program_byte_us)
  in
  let scale = target /. base in
  { default_cost with
    program_seek_us = default_cost.program_seek_us *. scale;
    program_byte_us = default_cost.program_byte_us *. scale }

type stats = {
  page_reads : int;
  bytes_read : int;
  page_programs : int;
  bytes_programmed : int;
  block_erases : int;
  read_time_us : float;
  write_time_us : float;
}

let zero_stats = {
  page_reads = 0;
  bytes_read = 0;
  page_programs = 0;
  bytes_programmed = 0;
  block_erases = 0;
  read_time_us = 0.;
  write_time_us = 0.;
}

let add_stats a b = {
  page_reads = a.page_reads + b.page_reads;
  bytes_read = a.bytes_read + b.bytes_read;
  page_programs = a.page_programs + b.page_programs;
  bytes_programmed = a.bytes_programmed + b.bytes_programmed;
  block_erases = a.block_erases + b.block_erases;
  read_time_us = a.read_time_us +. b.read_time_us;
  write_time_us = a.write_time_us +. b.write_time_us;
}

let diff_stats ~after ~before = {
  page_reads = after.page_reads - before.page_reads;
  bytes_read = after.bytes_read - before.bytes_read;
  page_programs = after.page_programs - before.page_programs;
  bytes_programmed = after.bytes_programmed - before.bytes_programmed;
  block_erases = after.block_erases - before.block_erases;
  read_time_us = after.read_time_us -. before.read_time_us;
  write_time_us = after.write_time_us -. before.write_time_us;
}

let total_time_us s = s.read_time_us +. s.write_time_us

type fault_config = {
  fault_seed : int;
  read_flip_prob : float;
  program_fail_prob : float;
  ecc : bool;
  max_program_retries : int;
}

let no_faults = {
  fault_seed = 0;
  read_flip_prob = 0.;
  program_fail_prob = 0.;
  ecc = true;
  max_program_retries = 4;
}

type fault_stats = {
  bit_flips : int;
  ecc_corrected : int;
  ecc_uncorrected : int;
  program_failures : int;
  pages_remapped : int;
  bad_blocks_marked : int;
  power_cuts : int;
}

let zero_fault_stats = {
  bit_flips = 0;
  ecc_corrected = 0;
  ecc_uncorrected = 0;
  program_failures = 0;
  pages_remapped = 0;
  bad_blocks_marked = 0;
  power_cuts = 0;
}

type page_state =
  | Erased
  | Programmed of { data : bytes; len : int }

(* The simulated power supply. Several Flash regions of one physical
   device (main store, scratch, a shadow image under construction)
   share a line: an armed power cut fires at the n-th page program
   counted across every connected region, whichever region issues it. *)
type power_line = { mutable cut_after : int option }

type t = {
  geometry : geometry;
  cost : cost;
  mutable pages : page_state array;
  mutable page_high_water : int;  (* pages ever allocated *)
  mutable free : int list;  (* erased pages below the high-water mark *)
  mutable stats : stats;
  fault : fault_config option;
  rng : Rng.t option;
  bad_blocks : (int, unit) Hashtbl.t;
  mutable power : power_line;  (* countdown over page programs *)
  mutable fault_stats : fault_stats;
  mutable authenticated : bool;  (* pages carry a CRC-32 trailer *)
  flipped : (int, int list) Hashtbl.t;
      (* page -> stored-bit indexes currently flipped in the cells *)
}

exception Program_error of string
exception Power_cut of { page : int; programmed : int }
exception Integrity_error of { page : int; what : string }

let create ?(geometry = default_geometry) ?(cost = default_cost) ?fault () = {
  geometry;
  cost;
  pages = Array.make 1024 Erased;
  page_high_water = 0;
  free = [];
  stats = zero_stats;
  fault;
  rng = Option.map (fun f -> Rng.create f.fault_seed) fault;
  bad_blocks = Hashtbl.create 8;
  power = { cut_after = None };
  fault_stats = zero_fault_stats;
  authenticated = false;
  flipped = Hashtbl.create 8;
}

let geometry t = t.geometry
let set_authenticated t flag = t.authenticated <- flag
let authenticated t = t.authenticated

let auth_trailer_bytes = 4

(* An authenticated page: payload | zero padding | CRC-32 of everything
   before the trailer. Sealing always emits a full page so the trailer
   sits at a fixed offset readers can find without a length header. *)
let seal_page t payload =
  let cap = t.geometry.page_size - auth_trailer_bytes in
  let len = Bytes.length payload in
  if len > cap then
    raise (Program_error
             (Printf.sprintf "seal_page: %d bytes exceeds sealed capacity %d"
                len cap));
  let page = Bytes.make t.geometry.page_size '\000' in
  Bytes.blit payload 0 page 0 len;
  Codec.put_u32 page cap (Codec.crc32 page ~pos:0 ~len:cap);
  page

let verify_image t ~page img =
  let cap = t.geometry.page_size - auth_trailer_bytes in
  if Codec.get_u32 img cap <> Codec.crc32 img ~pos:0 ~len:cap then
    raise (Integrity_error { page; what = "page CRC trailer mismatch" })

let is_programmed t page =
  page >= 0 && page < t.page_high_water
  && (match t.pages.(page) with Programmed _ -> true | Erased -> false)

let ecc_enabled t =
  match t.fault with Some f -> f.ecc | None -> true

(* Latent cell corruption: toggle a stored bit in place, without
   touching the simulated clock. Used by tests, chaos harnesses and
   experiments; toggling the same bit twice restores it. The flip lives
   in the cells, so every subsequent read of the page observes it until
   the page is erased or refreshed. *)
let corrupt_stored t ~page ~bit =
  if not (is_programmed t page) then
    invalid_arg (Printf.sprintf "Flash.corrupt_stored: page %d not programmed" page);
  if bit < 0 || bit >= t.geometry.page_size * 8 then
    invalid_arg "Flash.corrupt_stored: bit out of page bounds";
  let bits = Option.value ~default:[] (Hashtbl.find_opt t.flipped page) in
  let bits =
    if List.mem bit bits then List.filter (fun b -> b <> bit) bits
    else bit :: bits
  in
  if bits = [] then Hashtbl.remove t.flipped page
  else Hashtbl.replace t.flipped page bits

let page_errors t page =
  match Hashtbl.find_opt t.flipped page with
  | Some bits -> List.length bits
  | None -> 0

let arm_power_cut t ~after_programs =
  if after_programs < 1 then invalid_arg "Flash.arm_power_cut";
  t.power.cut_after <- Some after_programs

let disarm_power_cut t = t.power.cut_after <- None

let power_line t = t.power
let share_power t ~with_ = t.power <- with_.power

let block_of t page = page / t.geometry.pages_per_block
let is_bad_block t block = Hashtbl.mem t.bad_blocks block
let bad_block_count t = Hashtbl.length t.bad_blocks

let grow t needed =
  if needed > Array.length t.pages then begin
    let pages = Array.make (max needed (2 * Array.length t.pages)) Erased in
    Array.blit t.pages 0 pages 0 t.page_high_water;
    t.pages <- pages
  end

(* Next programmable page: recycled erased pages first, then fresh
   ones past the high-water mark. Pages in bad blocks are never handed
   out again. *)
let rec alloc_page t =
  match t.free with
  | p :: rest ->
    t.free <- rest;
    if is_bad_block t (block_of t p) then alloc_page t else p
  | [] ->
    grow t (t.page_high_water + 1);
    let p = t.page_high_water in
    t.page_high_water <- p + 1;
    if is_bad_block t (block_of t p) then alloc_page t else p

let charge_program t len =
  t.stats <- {
    t.stats with
    page_programs = t.stats.page_programs + 1;
    bytes_programmed = t.stats.bytes_programmed + len;
    write_time_us =
      t.stats.write_time_us
      +. t.cost.program_seek_us
      +. (Float.of_int len *. t.cost.program_byte_us);
  }

(* A power cut mid-program leaves the page torn: a strict prefix of
   the intended content made it to the cells, the rest reads back as
   erased padding. The prefix always drops at least one meaningful
   (non-zero) byte, so a torn page can never masquerade as the
   completed program. *)
let tear t page data len =
  let last_nonzero = ref (-1) in
  for i = 0 to len - 1 do
    if Bytes.get data i <> '\000' then last_nonzero := i
  done;
  let programmed =
    if !last_nonzero < 0 then 0
    else
      match t.rng with
      | Some rng -> Rng.int rng (!last_nonzero + 1)
      | None -> (!last_nonzero + 1) / 2
  in
  t.pages.(page) <- Programmed { data = Bytes.sub data 0 programmed; len = programmed };
  charge_program t programmed;
  t.fault_stats <- { t.fault_stats with power_cuts = t.fault_stats.power_cuts + 1 };
  raise (Power_cut { page; programmed })

(* Program an erased page, honouring an armed power cut. *)
let program_cells t page data len =
  (match t.pages.(page) with
   | Erased -> ()
   | Programmed _ ->
     raise (Program_error (Printf.sprintf "page %d is not erased" page)));
  (match t.power.cut_after with
   | Some n when n <= 1 ->
     t.power.cut_after <- None;
     tear t page data len
   | Some n -> t.power.cut_after <- Some (n - 1)
   | None -> ());
  t.pages.(page) <- Programmed { data = Bytes.copy data; len };
  charge_program t len

(* Does the fault model veto this program attempt? *)
let program_fails t =
  match t.fault, t.rng with
  | Some f, Some rng when f.program_fail_prob > 0. ->
    Rng.float rng 1.0 < f.program_fail_prob
  | _ -> false

let append t data =
  let len = Bytes.length data in
  if len > t.geometry.page_size then
    raise (Program_error
             (Printf.sprintf "append: %d bytes exceeds page size %d" len
                t.geometry.page_size));
  let rec attempt tries =
    let page = alloc_page t in
    if program_fails t then begin
      (* The program operation fails (worn or marginal cells): the
         attempt still costs time, the block is marked bad so none of
         its pages are handed out again, and the write is remapped to
         a spare page in a healthy block. *)
      charge_program t len;
      let block = block_of t page in
      if not (Hashtbl.mem t.bad_blocks block) then begin
        Hashtbl.replace t.bad_blocks block ();
        t.fault_stats <-
          { t.fault_stats with
            bad_blocks_marked = t.fault_stats.bad_blocks_marked + 1 }
      end;
      t.fault_stats <-
        { t.fault_stats with
          program_failures = t.fault_stats.program_failures + 1 };
      let max_retries =
        match t.fault with Some f -> f.max_program_retries | None -> 0
      in
      if tries >= max_retries then
        raise (Program_error
                 (Printf.sprintf "page %d: program failed after %d attempts"
                    page (tries + 1)))
      else begin
        t.fault_stats <-
          { t.fault_stats with
            pages_remapped = t.fault_stats.pages_remapped + 1 };
        attempt (tries + 1)
      end
    end
    else begin
      program_cells t page data len;
      page
    end
  in
  attempt 0

let program t ~page data =
  let len = Bytes.length data in
  if len > t.geometry.page_size then
    raise (Program_error
             (Printf.sprintf "program: %d bytes exceeds page size %d" len
                t.geometry.page_size));
  if page < 0 || page >= t.page_high_water then
    invalid_arg (Printf.sprintf "Flash.program: page %d out of range" page);
  t.free <- List.filter (fun p -> p <> page) t.free;
  program_cells t page data len

let charge_read t len =
  t.stats <- {
    t.stats with
    page_reads = t.stats.page_reads + 1;
    bytes_read = t.stats.bytes_read + len;
    read_time_us =
      t.stats.read_time_us
      +. t.cost.read_seek_us
      +. (Float.of_int len *. t.cost.read_byte_us);
  }

(* Bit-rot injection on the buffer handed back to the caller. With ECC
   on (the realistic default), the controller detects the flip against
   the spare-area code and corrects it with a metered re-read; with ECC
   off, the flipped bit propagates and only an end-to-end checksum at a
   higher layer can catch it. *)
let inject_read_faults t out len =
  match t.fault, t.rng with
  | Some f, Some rng
    when f.read_flip_prob > 0. && len > 0 && Rng.float rng 1.0 < f.read_flip_prob ->
    t.fault_stats <- { t.fault_stats with bit_flips = t.fault_stats.bit_flips + 1 };
    if f.ecc then begin
      t.fault_stats <-
        { t.fault_stats with ecc_corrected = t.fault_stats.ecc_corrected + 1 };
      charge_read t len  (* the corrective re-read *)
    end
    else begin
      t.fault_stats <-
        { t.fault_stats with ecc_uncorrected = t.fault_stats.ecc_uncorrected + 1 };
      let bit = Rng.int rng (len * 8) in
      let byte = bit / 8 in
      Bytes.set out byte
        (Char.chr (Char.code (Bytes.get out byte) lxor (1 lsl (bit mod 8))))
    end
  | _ -> ()

(* Latent cell flips (see [corrupt_stored]) observed by a read of
   [off, off+len). A single flipped bit on the page is within the ECC
   code's correction capacity: the controller fixes it with a metered
   re-read and the caller sees clean data. More flips than that — or
   ECC off — and the damage reaches the returned buffer. *)
let apply_stored_flips t ~page ~off ~len out =
  match Hashtbl.find_opt t.flipped page with
  | None -> ()
  | Some bits ->
    let overlapping =
      List.filter (fun b -> b / 8 >= off && b / 8 < off + len) bits
    in
    if overlapping <> [] then begin
      t.fault_stats <-
        { t.fault_stats with
          bit_flips = t.fault_stats.bit_flips + List.length overlapping };
      if ecc_enabled t && List.length bits = 1 then begin
        t.fault_stats <-
          { t.fault_stats with ecc_corrected = t.fault_stats.ecc_corrected + 1 };
        charge_read t len  (* the corrective re-read *)
      end
      else begin
        t.fault_stats <-
          { t.fault_stats with
            ecc_uncorrected =
              t.fault_stats.ecc_uncorrected + List.length overlapping };
        List.iter
          (fun b ->
             let byte = (b / 8) - off in
             Bytes.set out byte
               (Char.chr (Char.code (Bytes.get out byte) lxor (1 lsl (b mod 8)))))
          overlapping
      end
    end

let read t ~page ~off ~len =
  if page < 0 || page >= t.page_high_water then
    invalid_arg (Printf.sprintf "Flash.read: page %d out of range" page);
  match t.pages.(page) with
  | Erased -> invalid_arg (Printf.sprintf "Flash.read: page %d is erased" page)
  | Programmed { data; len = plen } ->
    if off < 0 || len < 0 || off + len > t.geometry.page_size then
      invalid_arg "Flash.read: range out of page bounds";
    charge_read t len;
    let out = Bytes.make len '\000' in
    (* Bytes past the programmed prefix read back as zeros (padding). *)
    let avail = max 0 (min len (plen - off)) in
    if avail > 0 then Bytes.blit data off out 0 avail;
    apply_stored_flips t ~page ~off ~len out;
    inject_read_faults t out len;
    out

let read_page t page = read t ~page ~off:0 ~len:t.geometry.page_size

(* Classify a failed verify: does a fresh full-page read (straight from
   the cells, no cache in this layer) pass the trailer check? If so the
   earlier corruption was transient (injected on the wire out of the
   cells, or since repaired); if not, the damage is in the cells. *)
let page_intact t ~page =
  if not t.authenticated then
    invalid_arg "Flash.page_intact: device is not authenticated";
  if not (is_programmed t page) then false
  else
    match verify_image t ~page (read_page t page) with
    | () -> true
    | exception Integrity_error _ -> false

(* In-place refresh of a decaying page: read the (ECC-corrected)
   content and reprogram it onto a spare, keeping the logical page id
   stable — the simulated FTL's spare-area remap. Clears the latent
   flips; charged as one read plus one program. *)
let rewrite_page t ~page =
  if not (is_programmed t page) then
    invalid_arg (Printf.sprintf "Flash.rewrite_page: page %d not programmed" page);
  (match t.pages.(page) with
   | Programmed { len; _ } ->
     charge_read t t.geometry.page_size;
     charge_program t len
   | Erased -> assert false);
  Hashtbl.remove t.flipped page

let erase_block t block =
  let first = block * t.geometry.pages_per_block in
  if first < 0 then invalid_arg "Flash.erase_block";
  if is_bad_block t block then ()  (* bad blocks are retired, never erased *)
  else begin
    let last = min (t.page_high_water - 1) (first + t.geometry.pages_per_block - 1) in
    for p = first to last do
      (match t.pages.(p) with
       | Programmed _ ->
         t.pages.(p) <- Erased;
         Hashtbl.remove t.flipped p;
         t.free <- p :: t.free
       | Erased -> ())
    done;
    t.stats <- {
      t.stats with
      block_erases = t.stats.block_erases + 1;
      write_time_us = t.stats.write_time_us +. t.cost.erase_us;
    }
  end

let erase_pages t pages =
  let module Iset = Set.Make (Int) in
  let blocks =
    List.fold_left
      (fun acc p -> Iset.add (p / t.geometry.pages_per_block) acc)
      Iset.empty pages
  in
  Iset.iter (erase_block t) blocks

let erase_live_blocks t =
  let ppb = t.geometry.pages_per_block in
  let n_blocks = (t.page_high_water + ppb - 1) / ppb in
  for block = 0 to n_blocks - 1 do
    let first = block * ppb in
    let last = min (t.page_high_water - 1) (first + ppb - 1) in
    let live = ref false in
    for p = first to last do
      match t.pages.(p) with
      | Programmed _ -> live := true
      | Erased -> ()
    done;
    if !live then erase_block t block
  done

let page_count t = t.page_high_water

let live_bytes t =
  let total = ref 0 in
  for p = 0 to t.page_high_water - 1 do
    match t.pages.(p) with
    | Programmed { len; _ } -> total := !total + len
    | Erased -> ()
  done;
  !total

let stats t = t.stats
let reset_stats t = t.stats <- zero_stats
let fault_stats t = t.fault_stats
let time_us t = total_time_us t.stats
