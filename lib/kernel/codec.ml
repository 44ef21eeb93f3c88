let put_u32 b off v =
  Bytes.set_int32_be b off (Int32.of_int (v land 0xFFFFFFFF))

let get_u32 b off = Int32.to_int (Bytes.get_int32_be b off) land 0xFFFFFFFF

(* Bit fields, most significant bit first: field [i] of width [w]
   starts at bit [bit] of the buffer, bit 0 being the top bit of byte
   0. A field of up to 32 bits spans at most 5 bytes. *)
let bits_for n =
  if n < 0 then invalid_arg "Codec.bits_for: negative";
  let rec loop n w = if n = 0 then w else loop (n lsr 1) (w + 1) in
  max 1 (loop n 0)

let check_width width =
  if width < 1 || width > 32 then invalid_arg "Codec: bit width outside 1..32"

let put_bits b ~bit ~width v =
  check_width width;
  if v < 0 || v lsr width <> 0 then
    invalid_arg (Printf.sprintf "Codec.put_bits: %d does not fit %d bits" v width);
  let rec loop bit rem =
    if rem > 0 then begin
      let byte = bit lsr 3 in
      let room = 8 - (bit land 7) in
      let n = min room rem in
      let mask = ((1 lsl n) - 1) lsl (room - n) in
      let chunk = ((v lsr (rem - n)) lsl (room - n)) land mask in
      Bytes.set_uint8 b byte (Bytes.get_uint8 b byte land lnot mask lor chunk);
      loop (bit + n) (rem - n)
    end
  in
  loop bit width

let get_bits b ~bit ~width =
  check_width width;
  let byte = bit lsr 3 and skip = bit land 7 in
  if byte + 8 <= Bytes.length b then
    (* one 64-bit load holds the field: [skip + width <= 39] *)
    Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_be b byte) (64 - skip - width))
    land ((1 lsl width) - 1)
  else begin
    let n = (skip + width + 7) lsr 3 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      acc := (!acc lsl 8) lor Bytes.get_uint8 b (byte + i)
    done;
    (!acc lsr ((n * 8) - skip - width)) land ((1 lsl width) - 1)
  end

let put_u64 b off v = Bytes.set_int64_be b off (Int64.of_int v)
let get_u64 b off = Int64.to_int (Bytes.get_int64_be b off)

let varint_size v =
  if v < 0 then invalid_arg "Codec.varint_size: negative";
  let rec loop v n = if v < 0x80 then n else loop (v lsr 7) (n + 1) in
  loop v 1

let put_varint buf v =
  if v < 0 then invalid_arg "Codec.put_varint: negative";
  let rec loop v =
    if v < 0x80 then Buffer.add_char buf (Char.chr v)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      loop (v lsr 7)
    end
  in
  loop v

let get_varint b off =
  let rec loop off shift acc =
    let c = Bytes.get_uint8 b off in
    let acc = acc lor ((c land 0x7F) lsl shift) in
    if c < 0x80 then (acc, off + 1) else loop (off + 1) (shift + 7) acc
  in
  loop off 0 0

let put_varint_into b off v =
  if v < 0 then invalid_arg "Codec.put_varint_into: negative";
  let rec loop off v =
    if v < 0x80 then begin
      Bytes.unsafe_set b off (Char.unsafe_chr v);
      off + 1
    end
    else begin
      Bytes.unsafe_set b off (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      loop (off + 1) (v lsr 7)
    end
  in
  loop off v

let get_varint_bounded b off ~stop =
  let stop = min stop (Bytes.length b) in
  let rec loop off shift acc =
    if off >= stop || shift > 56 then None
    else begin
      let c = Bytes.get_uint8 b off in
      let acc = acc lor ((c land 0x7F) lsl shift) in
      if c < 0x80 then Some (acc, off + 1) else loop (off + 1) (shift + 7) acc
    end
  in
  if off < 0 then None else loop off 0 0

(* Like put_varint but accepts any 63-bit pattern, treated unsigned
   (logical shifts), so zigzag covers the full int range. *)
let put_varint_bits buf v =
  let rec loop v =
    if v lsr 7 = 0 then Buffer.add_char buf (Char.chr (v land 0x7F))
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (v land 0x7F)));
      loop (v lsr 7)
    end
  in
  loop v

let put_zigzag buf v = put_varint_bits buf ((v lsl 1) lxor (v asr 62))

let get_zigzag b off =
  let u, off' = get_varint b off in
  ((u lsr 1) lxor (-(u land 1)), off')

let put_string16 buf s =
  let n = String.length s in
  if n > 0xFFFF then invalid_arg "Codec.put_string16: too long";
  Buffer.add_char buf (Char.chr (n lsr 8));
  Buffer.add_char buf (Char.chr (n land 0xFF));
  Buffer.add_string buf s

let get_string16 b off =
  let n = (Bytes.get_uint8 b off lsl 8) lor Bytes.get_uint8 b (off + 1) in
  (Bytes.sub_string b (off + 2) n, off + 2 + n)

(* CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320), the checksum
   of the crash-safe log page headers. Table-driven, one table shared
   process-wide. *)
let crc_table =
  lazy
    (Array.init 256 (fun n ->
         let c = ref n in
         for _ = 0 to 7 do
           c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
         done;
         !c))

let crc32 ?(crc = 0) b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Codec.crc32: range out of bounds";
  let table = Lazy.force crc_table in
  let c = ref (crc lxor 0xFFFFFFFF) in
  for i = pos to pos + len - 1 do
    c := table.((!c lxor Bytes.get_uint8 b i) land 0xFF) lxor (!c lsr 8)
  done;
  !c lxor 0xFFFFFFFF land 0xFFFFFFFF
