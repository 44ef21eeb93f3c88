module Flash = Ghost_flash.Flash
module Device = Ghost_device.Device

type progress = {
  cursor : int;
  total : int;
  passes : int;
  pages_verified : int;
  refreshed : int;
  corrupt : int list;
}

type t = {
  device : Device.t;
  pages : int array;  (* fixed walk list, sorted ascending *)
  mutable cursor : int;  (* next walk-list index to verify *)
  mutable pending : int;  (* full passes requested but not yet completed *)
  mutable passes : int;  (* full passes completed *)
  mutable pages_verified : int;
  mutable refreshed : int;
  mutable corrupt : int list;  (* trailer failures found, newest first *)
}

let batch_pages = 8

let create device ~pages =
  {
    device;
    pages = Array.of_list (List.sort_uniq compare pages);
    cursor = 0;
    pending = 1;
    passes = 0;
    pages_verified = 0;
    refreshed = 0;
    corrupt = [];
  }

let page_count t = Array.length t.pages
let idle t = t.pending = 0 || Array.length t.pages = 0
let request_pass t = t.pending <- t.pending + 1

let progress t = {
  cursor = t.cursor;
  total = Array.length t.pages;
  passes = t.passes;
  pages_verified = t.pages_verified;
  refreshed = t.refreshed;
  corrupt = List.sort_uniq compare t.corrupt;
}

(* One scrub slice: verify the next [batch_pages] pages of the walk
   list. The walk order and batch shape depend only on the page-id
   list — never on page content — so a spy timing idle slices learns
   the store's size and nothing else. Each page costs exactly one
   metered full-page read; a decaying-but-correctable page costs one
   refresh (read + reprogram) on top. Returns whether work was done;
   [false] means no pass is pending. *)
let step t =
  if idle t then false
  else begin
    let n = Array.length t.pages in
    let flash = Device.flash t.device in
    let batch = min batch_pages (n - t.cursor) in
    let refreshes = ref 0 in
    for i = t.cursor to t.cursor + batch - 1 do
      let page = t.pages.(i) in
      if Flash.is_programmed flash page then begin
        let img = Flash.read_page flash page in
        let ok =
          if Flash.authenticated flash then
            match Flash.verify_image flash ~page img with
            | () -> true
            | exception Flash.Integrity_error _ -> false
          else
            (* Unauthenticated region: no trailer to check, but latent
               flips the controller can still correct are worth
               refreshing all the same. *)
            Flash.page_errors flash page = 0
        in
        if not ok then begin
          (* Beyond local recovery: leave the page for the fleet's
             anti-entropy repair, recorded once per page. *)
          if not (List.mem page t.corrupt) then t.corrupt <- page :: t.corrupt
        end
        else if Flash.page_errors flash page > 0 then begin
          (* The served image verified, so the damage is within ECC
             correction capacity: rewrite before a second flip lands. *)
          Flash.rewrite_page flash ~page;
          incr refreshes
        end
      end;
      t.pages_verified <- t.pages_verified + 1
    done;
    t.refreshed <- t.refreshed + !refreshes;
    Device.note t.device ~by:batch Device.Pages_scrubbed;
    Device.note t.device ~by:!refreshes Device.Scrub_refreshes;
    t.cursor <- t.cursor + batch;
    if t.cursor >= n then begin
      t.cursor <- 0;
      t.passes <- t.passes + 1;
      t.pending <- t.pending - 1
    end;
    true
  end

let run_pending t = while step t do () done
