exception Ram_exceeded of {
  label : string;
  requested : int;
  in_use : int;
  budget : int;
}

type cell = {
  mutable size : int;
  mutable freed : bool;
}

type scope = {
  mutable scope_high : int;
  mutable open_ : bool;
}

type t = {
  budget : int;
  mutable in_use : int;
  mutable peak : int;
  mutable scopes : scope list;
}

let create ~budget =
  if budget <= 0 then invalid_arg "Ram.create: budget <= 0";
  { budget; in_use = 0; peak = 0; scopes = [] }

let budget t = t.budget
let in_use t = t.in_use
let peak t = t.peak

let note_usage t =
  if t.in_use > t.peak then t.peak <- t.in_use;
  List.iter
    (fun s -> if s.open_ && t.in_use > s.scope_high then s.scope_high <- t.in_use)
    t.scopes

let alloc t ~label n =
  if n < 0 then invalid_arg "Ram.alloc: negative size";
  if t.in_use + n > t.budget then
    raise (Ram_exceeded { label; requested = n; in_use = t.in_use; budget = t.budget });
  t.in_use <- t.in_use + n;
  note_usage t;
  { size = n; freed = false }

let free t c =
  if not c.freed then begin
    c.freed <- true;
    t.in_use <- t.in_use - c.size
  end

let resize t c n =
  if c.freed then invalid_arg "Ram.resize: freed cell";
  if n < 0 then invalid_arg "Ram.resize: negative size";
  let delta = n - c.size in
  if t.in_use + delta > t.budget then
    raise
      (Ram_exceeded
         { label = "resize"; requested = delta; in_use = t.in_use; budget = t.budget });
  t.in_use <- t.in_use + delta;
  c.size <- n;
  note_usage t

let with_alloc t ~label n f =
  let c = alloc t ~label n in
  match f c with
  | r ->
    free t c;
    r
  | exception e ->
    free t c;
    raise e

let would_fit t n = n >= 0 && t.in_use + n <= t.budget

let open_scope t =
  let s = { scope_high = t.in_use; open_ = true } in
  t.scopes <- s :: t.scopes;
  s

let close_scope t s =
  s.open_ <- false;
  t.scopes <- List.filter (fun s' -> s' != s) t.scopes;
  s.scope_high
