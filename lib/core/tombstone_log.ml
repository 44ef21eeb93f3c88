module Codec = Ghost_kernel.Codec
module Sorted_ids = Ghost_kernel.Sorted_ids
module Flash = Ghost_flash.Flash
module Append_log = Ghost_store.Append_log

type t = {
  log : Append_log.t;  (* one 4-byte record per deleted root id *)
  members : (int, unit) Hashtbl.t;
}

let create ?cache flash =
  {
    log = Append_log.create ?cache flash ~tag:"GTMB" ~record_bytes:4;
    members = Hashtbl.create 64;
  }

let count t = Append_log.count t.log
let acknowledged t = Append_log.acknowledged t.log
let size_bytes t = Append_log.size_bytes t.log
let dead_bytes t = Append_log.dead_bytes t.log
let needs_recovery t = Append_log.needs_recovery t.log
let mem t id = Hashtbl.mem t.members id
let pages t = Append_log.pages t.log
let page_intact t ~page = Append_log.page_intact t.log ~page

let id_of record = Codec.get_u32 (Bytes.unsafe_of_string record) 0

let append t ids =
  if needs_recovery t then
    invalid_arg "Tombstone_log.append: log needs recovery after a power cut";
  List.iter (fun id -> Hashtbl.replace t.members id ()) ids;
  Append_log.append t.log
    (List.map
       (fun id ->
          let b = Bytes.create 4 in
          Codec.put_u32 b 0 id;
          Bytes.unsafe_to_string b)
       ids)

type recovery = Append_log.recovery = {
  recovered : int;
  lost : int;
  torn_pages : int;
}

(* The volatile membership table is rebuilt from the records the
   recovery walk already parsed. *)
let recover t =
  let durable = ref [] in
  let r = Append_log.recover t.log ~on_record:(fun r -> durable := id_of r :: !durable) in
  Hashtbl.reset t.members;
  List.iter (fun id -> Hashtbl.replace t.members id ()) !durable;
  r

let load_sorted t =
  let acc = ref [] in
  Append_log.iter_pages t.log (fun b n ->
      for i = 0 to n - 1 do
        acc := Codec.get_u32 b (4 * i) :: !acc
      done);
  Sorted_ids.of_unsorted !acc
