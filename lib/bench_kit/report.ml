type t = {
  id : string;
  title : string;
  header : string list;
  rows : string list list;
  notes : string list;
}

let make ~id ~title ~header ?(notes = []) rows = { id; title; header; rows; notes }

let widths t =
  let all = t.header :: t.rows in
  let cols = List.length t.header in
  List.init cols (fun c ->
    List.fold_left
      (fun acc row ->
         match List.nth_opt row c with
         | Some cell -> max acc (String.length cell)
         | None -> acc)
      0 all)

let pp fmt t =
  Format.fprintf fmt "== %s: %s ==@." t.id t.title;
  let ws = widths t in
  let pp_row row =
    let cells =
      List.mapi
        (fun c cell ->
           let w = List.nth ws c in
           if c = 0 then Printf.sprintf "%-*s" w cell else Printf.sprintf "%*s" w cell)
        row
    in
    Format.fprintf fmt "  %s@." (String.concat "  " cells)
  in
  pp_row t.header;
  pp_row (List.map (fun w -> String.make w '-') ws);
  List.iter pp_row t.rows;
  List.iter (fun n -> Format.fprintf fmt "  note: %s@." n) t.notes;
  Format.fprintf fmt "@."

let to_string t = Format.asprintf "%a" pp t

let us v =
  if v >= 1_000_000. then Printf.sprintf "%.2f s" (v /. 1_000_000.)
  else if v >= 1_000. then Printf.sprintf "%.1f ms" (v /. 1_000.)
  else Printf.sprintf "%.0f us" v

let bytes n =
  if n >= 1_048_576 then Printf.sprintf "%.1f MB" (Float.of_int n /. 1_048_576.)
  else if n >= 1024 then Printf.sprintf "%.1f KB" (Float.of_int n /. 1024.)
  else Printf.sprintf "%d B" n

let factor f = Printf.sprintf "x%.1f" f

exception Would_overwrite of string

let write_string ~path ?(force = false) contents =
  if (not force) && Sys.file_exists path then raise (Would_overwrite path);
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) @@ fun () ->
  output_string oc contents;
  if contents = "" || contents.[String.length contents - 1] <> '\n' then
    output_char oc '\n'

let to_json t =
  let module Json = Ghost_metrics.Json in
  let strs l = Json.Arr (List.map (fun s -> Json.Str s) l) in
  Json.to_string
    (Json.Obj
       [
         ("id", Json.Str t.id);
         ("title", Json.Str t.title);
         ("header", strs t.header);
         ("rows", Json.Arr (List.map strs t.rows));
         ("notes", strs t.notes);
       ])

let write_file ~dir ?force t =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let path = Filename.concat dir (Printf.sprintf "BENCH_%s.json" t.id) in
  write_string ~path ?force (to_json t);
  path
