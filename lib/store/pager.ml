module Flash = Ghost_flash.Flash
module Ram = Ghost_device.Ram
module Cache = Ghost_device.Page_cache

type segment = {
  pages : int array;
  length : int;
}

let segment_bytes s = s.length

module Writer = struct
  type t = {
    flash : Flash.t;
    page_size : int;
    cap : int;  (* payload bytes per page (page_size minus any trailer) *)
    authed : bool;  (* seal each page with a CRC-32 trailer *)
    buf : Buffer.t;  (* current partial page *)
    mutable pages : int list;  (* reversed *)
    mutable flushed : int;  (* bytes already on flash *)
    mutable finished : bool;
  }

  let create flash =
    let page_size = (Flash.geometry flash).Flash.page_size in
    let authed = Flash.authenticated flash in
    {
      flash;
      page_size;
      cap = (if authed then page_size - Flash.auth_trailer_bytes else page_size);
      authed;
      buf = Buffer.create 2048;
      pages = [];
      flushed = 0;
      finished = false;
    }

  let flush_page t =
    let data = Buffer.to_bytes t.buf in
    let data = if t.authed then Flash.seal_page t.flash data else data in
    let page = Flash.append t.flash data in
    t.pages <- page :: t.pages;
    (* [flushed] counts logical payload bytes; the trailer is the
       page's, not the segment's. *)
    t.flushed <- t.flushed + Buffer.length t.buf;
    Buffer.clear t.buf

  let check t = if t.finished then invalid_arg "Pager.Writer: already finished"

  let append_substring t s off len =
    check t;
    let off = ref off and remaining = ref len in
    while !remaining > 0 do
      let room = t.cap - Buffer.length t.buf in
      let chunk = min room !remaining in
      Buffer.add_substring t.buf s !off chunk;
      off := !off + chunk;
      remaining := !remaining - chunk;
      if Buffer.length t.buf = t.cap then flush_page t
    done

  let append_string t s = append_substring t s 0 (String.length s)
  let append_bytes t b = append_string t (Bytes.to_string b)
  let append_buffer t b = append_string t (Buffer.contents b)
  let position t = t.flushed + Buffer.length t.buf

  let finish t =
    check t;
    if Buffer.length t.buf > 0 then flush_page t;
    t.finished <- true;
    { pages = Array.of_list (List.rev t.pages); length = t.flushed }
end

let write_segment flash s =
  let w = Writer.create flash in
  Writer.append_string w s;
  Writer.finish w

module Reader = struct
  type t = {
    flash : Flash.t;
    segment : segment;
    page_size : int;
    cap : int;  (* payload bytes per page (mirrors the writer's) *)
    verify : bool;  (* check CRC trailers on cache-miss fetches *)
    buffer_bytes : int;
    paged : bool;  (* windows hold whole pages, see [paged_read] *)
    window : Bytes.t;  (* cached window *)
    mutable win_off : int;
    mutable win_len : int;
    cache : Cache.t option;
    ram : Ram.t option;
    mutable cell : Ram.cell option;
    mutable closed : bool;
  }

  let open_ ?ram ?buffer_bytes ?(paged = false) ?cache flash segment =
    let page_size = (Flash.geometry flash).Flash.page_size in
    let buffer_bytes = Option.value buffer_bytes ~default:page_size in
    if buffer_bytes <= 0 then invalid_arg "Pager.Reader.open_: buffer_bytes <= 0";
    if paged && buffer_bytes < page_size then
      invalid_arg "Pager.Reader.open_: a paged reader buffers a whole page";
    (* The cache fronts exactly one Flash region; readers over any
       other (the scratch Flash) silently bypass it. *)
    let cache =
      match cache with
      | Some c when Cache.flash c == flash -> Some c
      | Some _ | None -> None
    in
    let cell =
      Option.map (fun r -> Ram.alloc r ~label:"pager-buffer" buffer_bytes) ram
    in
    let authed = Flash.authenticated flash in
    {
      flash;
      segment;
      page_size;
      cap = (if authed then page_size - Flash.auth_trailer_bytes else page_size);
      verify = authed;
      buffer_bytes;
      paged;
      window = Bytes.make buffer_bytes '\000';
      win_off = 0;
      win_len = 0;
      cache;
      ram;
      cell;
      closed = false;
    }

  let length t = t.segment.length

  (* Copy [len] bytes at logical offset [off] into [dst] at [dst_off] —
     through the shared page cache when there is one (hits are free,
     misses fill a frame with one full-page read), else one partial
     Flash read per touched page. *)
  let fetch t ~off ~len dst dst_off =
    let remaining = ref len and src = ref off and out = ref dst_off in
    while !remaining > 0 do
      let page_idx = !src / t.cap in
      let in_page = !src mod t.cap in
      let chunk = min !remaining (t.cap - in_page) in
      (match t.cache with
       | Some cache ->
         Cache.read ~verify:t.verify cache ~page:t.segment.pages.(page_idx)
           ~off:in_page ~len:chunk dst ~pos:!out
       | None when t.verify ->
         (* End-to-end verification needs the whole page under the
            CRC: the uncached verifying read pays a full-page read
            where the seed path pays a partial one. That honest cost
            is what E21's overhead column prices. *)
         let page = t.segment.pages.(page_idx) in
         let img = Flash.read_page t.flash page in
         Flash.verify_image t.flash ~page img;
         Bytes.blit img in_page dst !out chunk
       | None ->
         let data =
           Flash.read t.flash ~page:t.segment.pages.(page_idx) ~off:in_page ~len:chunk
         in
         Bytes.blit data 0 dst !out chunk);
      src := !src + chunk;
      out := !out + chunk;
      remaining := !remaining - chunk
    done

  (* A paged window holds the payload of the page under [off]. A value
     that runs past the window's end keeps its head from the window and
     reads on from the next page, which becomes the window: a scan in
     offset order reads each page of the segment once. *)
  let rec paged_read t ~off ~len dst ~pos =
    let win_end = t.win_off + t.win_len in
    if off >= t.win_off && off + len <= win_end then
      Bytes.blit t.window (off - t.win_off) dst pos len
    else begin
      let head = if off >= t.win_off && off < win_end then win_end - off else 0 in
      if head > 0 then Bytes.blit t.window (off - t.win_off) dst pos head;
      let page_off = if head > 0 then win_end else off - (off mod t.cap) in
      let win_len = min t.cap (t.segment.length - page_off) in
      fetch t ~off:page_off ~len:win_len t.window 0;
      t.win_off <- page_off;
      t.win_len <- win_len;
      paged_read t ~off:(off + head) ~len:(len - head) dst ~pos:(pos + head)
    end

  let read_into t ~off ~len dst ~pos =
    if t.closed then invalid_arg "Pager.Reader.read_into: closed";
    if off < 0 || len < 0 || off + len > t.segment.length then
      invalid_arg
        (Printf.sprintf "Pager.Reader.read_into: [%d, %d) out of segment of %d bytes"
           off (off + len) t.segment.length);
    if pos < 0 || pos + len > Bytes.length dst then
      invalid_arg "Pager.Reader.read_into: destination range out of bounds";
    if len = 0 then ()
    else if t.paged then paged_read t ~off ~len dst ~pos
    else if off >= t.win_off && off + len <= t.win_off + t.win_len then
      Bytes.blit t.window (off - t.win_off) dst pos len
    else if len >= t.buffer_bytes then
      (* Too big to cache in the window: stream straight through. *)
      fetch t ~off ~len dst pos
    else begin
      let win_len = min t.buffer_bytes (t.segment.length - off) in
      fetch t ~off ~len:win_len t.window 0;
      t.win_off <- off;
      t.win_len <- win_len;
      Bytes.blit t.window 0 dst pos len
    end

  let read t ~off ~len =
    let out = Bytes.make len '\000' in
    read_into t ~off ~len out ~pos:0;
    out

  let close t =
    if not t.closed then begin
      t.closed <- true;
      match t.ram, t.cell with
      | Some r, Some c -> Ram.free r c
      | _, _ -> ()
    end
end

let with_reader ?ram ?buffer_bytes ?cache flash segment f =
  let r = Reader.open_ ?ram ?buffer_bytes ?cache flash segment in
  match f r with
  | v ->
    Reader.close r;
    v
  | exception e ->
    Reader.close r;
    raise e
