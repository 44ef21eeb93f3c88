module Codec = Ghost_kernel.Codec

let tag_u32 tag =
  String.fold_left (fun acc c -> (acc lsl 8) lor Char.code c) 0 tag

let crc b ~header_bytes ~payload_bytes =
  Codec.crc32 b ~pos:0 ~len:(header_bytes - 4)
  |> fun crc -> Codec.crc32 ~crc b ~pos:header_bytes ~len:payload_bytes

let seal ~tag ~header_bytes put payload =
  let payload_bytes = String.length payload in
  let b = Bytes.create (header_bytes + payload_bytes) in
  Codec.put_u32 b 0 (tag_u32 tag);
  put b;
  Bytes.blit_string payload 0 b header_bytes payload_bytes;
  Codec.put_u32 b (header_bytes - 4) (crc b ~header_bytes ~payload_bytes);
  b

let verify ~tag ~header_bytes ~payload_bytes b =
  Bytes.length b >= header_bytes + payload_bytes
  && Codec.get_u32 b 0 = tag_u32 tag
  && Codec.get_u32 b (header_bytes - 4) = crc b ~header_bytes ~payload_bytes
