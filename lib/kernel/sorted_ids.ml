let is_sorted a =
  let ok = ref true in
  for i = 1 to Array.length a - 1 do
    if a.(i) <= a.(i - 1) then ok := false
  done;
  !ok

let of_unsorted l =
  let a = Array.of_list l in
  Array.sort Int.compare a;
  let n = Array.length a in
  if n = 0 then a
  else begin
    let out = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> a.(!out - 1) then begin
        a.(!out) <- a.(i);
        incr out
      end
    done;
    Array.sub a 0 !out
  end

(* First index in [lo, Array.length a) whose element is >= x, found by
   exponential then binary search starting at [lo]. *)
let gallop a lo x =
  let n = Array.length a in
  if lo >= n || a.(lo) >= x then lo
  else begin
    let step = ref 1 in
    let prev = ref lo in
    let cur = ref (lo + 1) in
    while !cur < n && a.(!cur) < x do
      prev := !cur;
      step := !step * 2;
      cur := min n (!cur + !step)
    done;
    let lo = ref (!prev + 1) and hi = ref (min !cur n) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if a.(mid) < x then lo := mid + 1 else hi := mid
    done;
    !lo
  end

let intersect a b =
  let small, big = if Array.length a <= Array.length b then (a, b) else (b, a) in
  let j = ref 0 in
  let count = ref 0 in
  let out = Array.make (Array.length small) 0 in
  for i = 0 to Array.length small - 1 do
    let x = small.(i) in
    j := gallop big !j x;
    if !j < Array.length big && big.(!j) = x then begin
      out.(!count) <- x;
      incr count
    end
  done;
  Array.sub out 0 !count

let intersect_many = function
  | [] -> invalid_arg "Sorted_ids.intersect_many: no lists"
  | first :: rest ->
    let sorted =
      List.sort (fun a b -> Int.compare (Array.length a) (Array.length b)) (first :: rest)
    in
    (match sorted with
     | [] -> assert false
     | smallest :: others -> List.fold_left intersect smallest others)

let union a b =
  let na = Array.length a and nb = Array.length b in
  let out = Array.make (na + nb) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < na && !j < nb do
    let x = a.(!i) and y = b.(!j) in
    if x < y then begin out.(!k) <- x; incr i end
    else if y < x then begin out.(!k) <- y; incr j end
    else begin out.(!k) <- x; incr i; incr j end;
    incr k
  done;
  while !i < na do out.(!k) <- a.(!i); incr i; incr k done;
  while !j < nb do out.(!k) <- b.(!j); incr j; incr k done;
  Array.sub out 0 !k

let union_many = function
  | [] -> [||]
  | first :: rest -> List.fold_left union first rest

let difference a b =
  let out = Array.make (Array.length a) 0 in
  let j = ref 0 and k = ref 0 in
  for i = 0 to Array.length a - 1 do
    let x = a.(i) in
    j := gallop b !j x;
    if not (!j < Array.length b && b.(!j) = x) then begin
      out.(!k) <- x;
      incr k
    end
  done;
  Array.sub out 0 !k

let member a x =
  let i = gallop a 0 x in
  i < Array.length a && a.(i) = x

let rank a x = gallop a 0 x

(* The gap convention shared by every delta consumer (Id_list payloads,
   the wire codec): delta_i = id_i - id_{i-1} - 1 with id_{-1} = -1, so
   a dense run of ids encodes as a run of zeros. *)

let bad_delta () =
  invalid_arg "Sorted_ids: not strictly increasing non-negative"

let iter_deltas f a =
  let prev = ref (-1) in
  Array.iter
    (fun id ->
       if id <= !prev || id < 0 then bad_delta ();
       f (id - !prev - 1);
       prev := id)
    a
