type 'a t = {
  cmp : 'a -> 'a -> int;
  mutable items : 'a array;
  mutable size : int;
}

let create ~cmp = { cmp; items = [||]; size = 0 }
let size t = t.size

let swap t i j =
  let tmp = t.items.(i) in
  t.items.(i) <- t.items.(j);
  t.items.(j) <- tmp

let push t x =
  if t.size = Array.length t.items then begin
    let items = Array.make (max 8 (2 * t.size)) x in
    Array.blit t.items 0 items 0 t.size;
    t.items <- items
  end;
  t.items.(t.size) <- x;
  t.size <- t.size + 1;
  let i = ref (t.size - 1) in
  while !i > 0 && t.cmp t.items.(!i) t.items.((!i - 1) / 2) < 0 do
    swap t !i ((!i - 1) / 2);
    i := (!i - 1) / 2
  done

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.items.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.items.(0) <- t.items.(t.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < t.size && t.cmp t.items.(l) t.items.(!smallest) < 0 then smallest := l;
        if r < t.size && t.cmp t.items.(r) t.items.(!smallest) < 0 then smallest := r;
        if !smallest = !i then continue := false
        else begin
          swap t !i !smallest;
          i := !smallest
        end
      done
    end;
    Some top
  end

let peek t = if t.size = 0 then None else Some t.items.(0)
