module Codec = Ghost_kernel.Codec
module Sorted_ids = Ghost_kernel.Sorted_ids
module Value = Ghost_kernel.Value

type format = Verbose | Compact

let format_name = function Verbose -> "verbose" | Compact -> "compact"

type message =
  | Query of string
  | Id_list of { table : string; ids : int array }
  | Value_stream of {
      table : string;
      column : string;
      ty : Value.ty;
      pairs : (int * Value.t) array;
    }

(* Frame layout: magic byte, messages, CRC-32 (big-endian u32) of
   everything before it. Message layout: opcode byte + payload. *)
let frame_magic = 0xC7
let op_query = 0x01
let op_id_list = 0x02
let op_value_stream = 0x03
let envelope_bytes = 5

(* ---- encoder ---- *)

type encoder = {
  mutable buf : Bytes.t;
  mutable len : int;
  labels : (string, int) Hashtbl.t;
  mutable n_labels : int;
}

let encoder () =
  { buf = Bytes.create 512; len = 0; labels = Hashtbl.create 16; n_labels = 0 }

let ensure e n =
  let need = e.len + n in
  if need > Bytes.length e.buf then begin
    let cap = ref (Bytes.length e.buf * 2) in
    while need > !cap do
      cap := !cap * 2
    done;
    let b = Bytes.create !cap in
    Bytes.blit e.buf 0 b 0 e.len;
    e.buf <- b
  end

let put_byte e v =
  ensure e 1;
  Bytes.unsafe_set e.buf e.len (Char.unsafe_chr (v land 0xFF));
  e.len <- e.len + 1

let put_varint e v =
  ensure e (Codec.varint_size v);
  e.len <- Codec.put_varint_into e.buf e.len v

let put_string e s =
  let n = String.length s in
  ensure e n;
  Bytes.blit_string s 0 e.buf e.len n;
  e.len <- e.len + n

let put_bytes e b =
  let n = Bytes.length b in
  ensure e n;
  Bytes.blit b 0 e.buf e.len n;
  e.len <- e.len + n

(* Label interning within a frame: one varint [v] per label. An odd
   [v] introduces an inline definition of [v lsr 1] name bytes, bound
   to the next free index; an even [v] refers back to index [v lsr 1].
   A frame repeating a table sends one byte per label instead of the
   name. The dictionary starts empty in every frame, so a frame's bytes
   depend on its own messages alone, never on what the link carried
   before; every frame defines its labels, so a definition's flag rides
   in its length varint. *)
let put_label e name =
  match Hashtbl.find_opt e.labels name with
  | Some idx -> put_varint e (idx lsl 1)
  | None ->
    Hashtbl.add e.labels name e.n_labels;
    e.n_labels <- e.n_labels + 1;
    put_varint e ((String.length name lsl 1) lor 1);
    put_string e name

(* Any 63-bit pattern, treated unsigned (logical shifts), so zigzag
   covers the full int range — the direct-write analog of
   {!Codec.put_varint_bits}. *)
let put_uvarint e v =
  ensure e 10;
  let rec loop off v =
    if v lsr 7 = 0 then begin
      Bytes.unsafe_set e.buf off (Char.unsafe_chr (v land 0x7F));
      e.len <- off + 1
    end
    else begin
      Bytes.unsafe_set e.buf off (Char.unsafe_chr (0x80 lor (v land 0x7F)));
      loop (off + 1) (v lsr 7)
    end
  in
  loop e.len v

(* A CHAR(n) value: its length varint, then its bytes up to [n] with
   the '\000' padding trimmed. *)
let put_char e n s =
  let len = ref (min (String.length s) n) in
  while !len > 0 && s.[!len - 1] = '\000' do
    decr len
  done;
  let len = !len in
  put_varint e len;
  ensure e len;
  Bytes.blit_string s 0 e.buf e.len len;
  e.len <- e.len + len

(* Compact values drop the fixed widths the Flash layout needs but the
   wire does not: ints and dates travel as zigzag varints, CHAR(n)
   strings as length-prefixed bytes with the '\000' padding trimmed
   (CHAR comparison ignores it, so the trim is lossless); floats keep
   their 8-byte order-preserving image. *)
let put_value e ty v =
  match (ty, v) with
  | Value.T_int, Value.Int i | Value.T_date, Value.Date i ->
    put_uvarint e ((i lsl 1) lxor (i asr 62))
  | Value.T_float, Value.Float _ -> put_bytes e (Value.encode ty v)
  | Value.T_char n, Value.Str s -> put_char e n s
  | _ -> invalid_arg "Wire.add_message: value does not match the column type"

let put_ty e ty =
  (match ty with
   | Value.T_int -> put_byte e 0
   | Value.T_float -> put_byte e 1
   | Value.T_date -> put_byte e 2
   | Value.T_char n ->
     put_byte e 3;
     put_varint e n)

let begin_frame e =
  e.len <- 0;
  Hashtbl.clear e.labels;
  e.n_labels <- 0;
  put_byte e frame_magic

let add_message e msg =
  let start = e.len in
  (match msg with
   | Query text ->
     put_byte e op_query;
     put_varint e (String.length text);
     put_string e text
   | Id_list { table; ids } ->
     put_byte e op_id_list;
     put_label e table;
     put_varint e (Array.length ids);
     Sorted_ids.iter_deltas (fun d -> put_varint e d) ids
   | Value_stream { table; column; ty; pairs } ->
     put_byte e op_value_stream;
     put_label e table;
     put_label e column;
     put_ty e ty;
     put_varint e (Array.length pairs);
     (* Per pair: the gap varint carries a null flag in bit 0, so a
        non-null value follows as its fixed-width order-preserving
        encoding and a null costs nothing beyond the gap. *)
     let prev = ref (-1) in
     Array.iter
       (fun (id, v) ->
          if id <= !prev || id < 0 then
            invalid_arg "Wire.add_message: ids not strictly increasing";
          let delta = id - !prev - 1 in
          prev := id;
          if Value.is_null v then put_varint e ((delta lsl 1) lor 1)
          else begin
            put_varint e (delta lsl 1);
            put_value e ty v
          end)
       pairs);
  e.len - start

let end_frame e =
  let crc = Codec.crc32 e.buf ~pos:0 ~len:e.len in
  ensure e 4;
  Codec.put_u32 e.buf e.len crc;
  e.len <- e.len + 4;
  e.len

let frame e = Bytes.sub e.buf 0 e.len

(* The seed's framing, now actually encoded so the metered byte count
   is the real frame size rather than a per-constructor estimate. The
   sizes are identical to the seed's by construction. *)
let encode_verbose e msg =
  e.len <- 0;
  (match msg with
   | Query text -> put_string e text
   | Id_list { ids; _ } ->
     ensure e (4 * Array.length ids);
     Array.iter
       (fun id ->
          Codec.put_u32 e.buf e.len id;
          e.len <- e.len + 4)
       ids
   | Value_stream { ty; pairs; _ } ->
     let width = Value.ty_width ty in
     ensure e ((4 + width) * Array.length pairs);
     Array.iter
       (fun (id, v) ->
          Codec.put_u32 e.buf e.len id;
          e.len <- e.len + 4;
          if Value.is_null v then begin
            Bytes.fill e.buf e.len width '\000';
            e.len <- e.len + width
          end
          else begin
            Bytes.blit (Value.encode ty v) 0 e.buf e.len width;
            e.len <- e.len + width
          end)
       pairs);
  e.len

(* ---- result rows (the secure display link) ----

   Rows follow one another with no count and no framing: the display
   decodes rows until the bytes run out, so no rows cost no bytes.
   Per value: an INT or DATE is the zigzag varint of its difference
   from the previous non-NULL value of its column (0 before the first),
   so ids in root-id order cost about a byte; a CHAR(n) is {!put_char};
   a FLOAT is its 8-byte order-preserving image. A NULL INT, DATE or
   CHAR is the overlong zero [0x80 0x00], a spelling no canonical
   varint takes; a NULL FLOAT is the all-ones image, a NaN the codec
   never writes, since it spells every NaN as [Float.nan] (NaNs compare
   equal, so nothing is lost). *)

let null_float = Bytes.make 8 '\xff'

let encode_rows e ~tys rows =
  e.len <- 0;
  let k = Array.length tys in
  let prev = Array.make k 0 in
  List.iter
    (fun row ->
       if Array.length row <> k then
         invalid_arg "Wire.encode_rows: row width differs from its types";
       for i = 0 to k - 1 do
         match (tys.(i), row.(i)) with
         | Value.T_float, Value.Null -> put_bytes e null_float
         | _, Value.Null ->
           put_byte e 0x80;
           put_byte e 0
         | Value.T_int, Value.Int x | Value.T_date, Value.Date x ->
           let d = x - prev.(i) in
           prev.(i) <- x;
           put_uvarint e ((d lsl 1) lxor (d asr 62))
         | Value.T_float, Value.Float f ->
           put_bytes e
             (Value.encode Value.T_float
                (Value.Float (if Float.is_nan f then Float.nan else f)))
         | Value.T_char n, Value.Str s -> put_char e n s
         | _ -> invalid_arg "Wire.encode_rows: value does not match the column type"
       done)
    rows;
  e.len

(* INT and DATE: the widest canonical varint of a 63-bit pattern. *)
let max_value_bytes = function
  | Value.T_int | Value.T_date -> 9
  | Value.T_float -> 8
  | Value.T_char n -> max 2 (Codec.varint_size n + n)

let max_row_bytes tys = Array.fold_left (fun acc ty -> acc + max_value_bytes ty) 0 tys

(* ---- decoder ---- *)

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let decode_frame b ~pos ~len =
  try
    if len < envelope_bytes then bad "frame shorter than envelope (%d bytes)" len;
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      bad "frame out of bounds";
    if Bytes.get_uint8 b pos <> frame_magic then bad "bad frame magic";
    let stored = Codec.get_u32 b (pos + len - 4) in
    let computed = Codec.crc32 b ~pos ~len:(len - 4) in
    if stored <> computed then bad "crc mismatch";
    let stop = pos + len - 4 in
    (* The frame's own label definitions, newest first. *)
    let names = ref [] in
    let n_names = ref 0 in
    let read_varint p =
      match Codec.get_varint_bounded b p ~stop with
      | Some r -> r
      | None -> bad "truncated or overlong varint"
    in
    let read_label p =
      let v, p = read_varint p in
      if v land 1 = 1 then begin
        let n = v lsr 1 in
        if n > stop - p then bad "truncated label definition";
        let name = Bytes.sub_string b p n in
        names := name :: !names;
        incr n_names;
        (name, p + n)
      end
      else begin
        let i = v lsr 1 in
        if i < !n_names then (List.nth !names (!n_names - 1 - i), p)
        else bad "label reference %d out of range" i
      end
    in
    let read_ty p =
      if p >= stop then bad "truncated type tag";
      match Bytes.get_uint8 b p with
      | 0 -> (Value.T_int, p + 1)
      | 1 -> (Value.T_float, p + 1)
      | 2 -> (Value.T_date, p + 1)
      | 3 ->
        let n, p = read_varint (p + 1) in
        (Value.T_char n, p)
      | t -> bad "unknown type tag %d" t
    in
    let rec messages p acc =
      if p = stop then List.rev acc
      else begin
        let op = Bytes.get_uint8 b p in
        let p = p + 1 in
        if op = op_query then begin
          let n, p = read_varint p in
          if n > stop - p then bad "truncated query text";
          messages (p + n) (Query (Bytes.sub_string b p n) :: acc)
        end
        else if op = op_id_list then begin
          let table, p = read_label p in
          let count, p = read_varint p in
          (* every delta is at least one byte, so a count beyond the
             remaining frame is malformed (and bounds the alloc) *)
          if count > stop - p then bad "id count overflows frame";
          let ids = Array.make count 0 in
          let prev = ref (-1) in
          let pr = ref p in
          for i = 0 to count - 1 do
            let delta, p' = read_varint !pr in
            pr := p';
            let id = !prev + 1 + delta in
            if id < 0 then bad "id overflow";
            ids.(i) <- id;
            prev := id
          done;
          messages !pr (Id_list { table; ids } :: acc)
        end
        else if op = op_value_stream then begin
          let table, p = read_label p in
          let column, p = read_label p in
          let ty, p = read_ty p in
          let read_value p =
            match ty with
            | Value.T_int ->
              let u, p = read_varint p in
              (Value.Int ((u lsr 1) lxor (- (u land 1))), p)
            | Value.T_date ->
              let u, p = read_varint p in
              (Value.Date ((u lsr 1) lxor (- (u land 1))), p)
            | Value.T_float ->
              if 8 > stop - p then bad "truncated value";
              (Value.decode Value.T_float b p, p + 8)
            | Value.T_char n ->
              let len, p = read_varint p in
              if len > n then bad "char value longer than its type";
              if len > stop - p then bad "truncated value";
              (Value.Str (Bytes.sub_string b p len), p + len)
          in
          let count, p = read_varint p in
          if count > stop - p then bad "pair count overflows frame";
          let pairs = Array.make count (0, Value.Null) in
          let prev = ref (-1) in
          let pr = ref p in
          for i = 0 to count - 1 do
            let tagged, p' = read_varint !pr in
            pr := p';
            let id = !prev + 1 + (tagged lsr 1) in
            if id < 0 then bad "id overflow";
            prev := id;
            if tagged land 1 = 1 then pairs.(i) <- (id, Value.Null)
            else begin
              let v, p' = read_value !pr in
              pairs.(i) <- (id, v);
              pr := p'
            end
          done;
          messages !pr (Value_stream { table; column; ty; pairs } :: acc)
        end
        else bad "unknown opcode 0x%02x" op
      end
    in
    Ok (messages (pos + 1) [])
  with
  | Bad m -> Error m
  | Invalid_argument m -> Error ("malformed frame: " ^ m)

let decode_rows ~tys b ~pos ~len =
  try
    if pos < 0 || len < 0 || pos + len > Bytes.length b then bad "rows out of bounds";
    let k = Array.length tys in
    if k = 0 && len > 0 then bad "bytes for rows of no column";
    let stop = pos + len in
    let prev = Array.make k 0 in
    let read_varint p =
      match Codec.get_varint_bounded b p ~stop with
      | Some r -> r
      | None -> bad "truncated or overlong varint"
    in
    let read_value i p =
      match tys.(i) with
      | Value.T_float ->
        if 8 > stop - p then bad "truncated value";
        if Bytes.get_int64_be b p = -1L then (Value.Null, p + 8)
        else (Value.decode Value.T_float b p, p + 8)
      | _ when p + 1 < stop && Bytes.get_uint8 b p = 0x80 && Bytes.get_uint8 b (p + 1) = 0
        ->
        (Value.Null, p + 2)
      | (Value.T_int | Value.T_date) as ty ->
        let u, p = read_varint p in
        let x = prev.(i) + ((u lsr 1) lxor -(u land 1)) in
        prev.(i) <- x;
        ((if ty = Value.T_int then Value.Int x else Value.Date x), p)
      | Value.T_char n ->
        let l, p = read_varint p in
        if l > n then bad "char value longer than its type";
        if l > stop - p then bad "truncated value";
        (Value.Str (Bytes.sub_string b p l), p + l)
    in
    let rec rows p acc =
      if p >= stop then List.rev acc
      else begin
        let row = Array.make k Value.Null in
        let p =
          let p = ref p in
          for i = 0 to k - 1 do
            let v, p' = read_value i !p in
            row.(i) <- v;
            p := p'
          done;
          !p
        in
        rows p (row :: acc)
      end
    in
    Ok (rows pos [])
  with Bad m -> Error m

let decode_verbose_query b ~pos ~len = Bytes.sub_string b pos len

let decode_verbose_ids b ~pos ~len =
  if len mod 4 <> 0 then Error "id list length not a multiple of 4"
  else Ok (Array.init (len / 4) (fun i -> Codec.get_u32 b (pos + (4 * i))))

let decode_verbose_values ~ty b ~pos ~len =
  let width = Value.ty_width ty in
  if len mod (4 + width) <> 0 then Error "value stream length not a pair multiple"
  else
    Ok
      (Array.init
         (len / (4 + width))
         (fun i ->
            let off = pos + (i * (4 + width)) in
            (Codec.get_u32 b off, Value.decode ty b (off + 4))))

(* ---- size estimation (cost model) ---- *)

(* opcode + interned labels + count varint + the frame envelope's
   amortized share: small against any list worth predicting *)
let header_overhead = 10.

(* The mean step between [count] ids drawn from 1..[population]. Fewer
   than one expected id still steps at most the whole population, so a
   vanishing count never overflows the varint sizing below. *)
let est_gap ~population count = Float.max 1. (population /. Float.max 1. count)

let est_id_list_bytes fmt ~population count =
  match fmt with
  | Verbose -> 4. *. count
  | Compact ->
    if count <= 0. then 0.
    else begin
      let gap = est_gap ~population count in
      let per = Float.of_int (Codec.varint_size (int_of_float gap)) in
      (count *. per) +. header_overhead
    end

(* Expected compact bytes of one value: ints and dates are small-gap
   zigzag varints in practice, floats stay 8 bytes, CHAR(n) averages a
   half-full field plus its length byte. *)
let est_value_bytes = function
  | Value.T_int | Value.T_date -> 3.
  | Value.T_float -> 8.
  | Value.T_char n -> (Float.of_int n /. 2.) +. 1.

(* A root key in root-id order moves by the mean gap between kept
   rows, as in a value stream. *)
let est_rows_bytes ~population ~root_keys ~tys count =
  if count <= 0. then 0.
  else begin
    let gap = est_gap ~population count in
    let key_bytes = Float.of_int (Codec.varint_size (2 * int_of_float gap)) in
    count
    *. List.fold_left
         (fun acc ty -> acc +. est_value_bytes ty)
         (Float.of_int root_keys *. key_bytes)
         tys
  end

let est_value_stream_bytes fmt ~population ~tys count =
  match fmt with
  | Verbose ->
    (* the seed's lumped per-table formula: one 4-byte id plus the
       combined projected width per streamed row — bit-identical *)
    let width = List.fold_left (fun acc ty -> acc + Value.ty_width ty) 0 tys in
    Float.of_int (4 + width) *. count
  | Compact ->
    if count <= 0. then 0.
    else begin
      let gap = est_gap ~population count in
      let gap_bytes = Float.of_int (Codec.varint_size (2 * int_of_float gap)) in
      (* each projected column travels as its own stream, paying its
         own gap varints and frame-amortized header *)
      List.fold_left
        (fun acc ty ->
           acc +. (count *. (gap_bytes +. est_value_bytes ty)) +. header_overhead)
        0. tys
    end
