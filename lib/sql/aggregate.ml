module Value = Ghost_kernel.Value

type fn =
  | Count
  | Sum
  | Avg
  | Min
  | Max

type agg = {
  a_fn : fn;
  a_arg : (string * string) option;
  a_arg_pos : int option;
}

type spec = {
  group_by : (string * string) list;
  aggs : agg list;
  output : [ `Group of int | `Agg of int ] list;
}

let of_ast_fn = function
  | Ast.Count -> Count
  | Ast.Sum -> Sum
  | Ast.Avg -> Avg
  | Ast.Min -> Min
  | Ast.Max -> Max

(* Running state of one aggregate over one group. *)
type acc = {
  mutable count : int;  (* non-null inputs seen *)
  mutable sum_int : int;
  mutable sum_float : float;
  mutable saw_float : bool;
  mutable extremum : Value.t;  (* Null until a value arrives *)
}

let fresh_acc () =
  { count = 0; sum_int = 0; sum_float = 0.; saw_float = false; extremum = Value.Null }

let feed fn acc v =
  match v with
  | Value.Null -> ()
  | _ ->
    acc.count <- acc.count + 1;
    (match fn, v with
     | (Sum | Avg), Value.Int i -> acc.sum_int <- acc.sum_int + i
     | (Sum | Avg), Value.Float f ->
       acc.saw_float <- true;
       acc.sum_float <- acc.sum_float +. f
     | (Sum | Avg), (Value.Date _ | Value.Str _) ->
       invalid_arg "Aggregate: SUM/AVG over a non-numeric column"
     | (Min | Max), _ ->
       if Value.is_null acc.extremum then acc.extremum <- v
       else begin
         let c = Value.compare v acc.extremum in
         if (fn = Min && c < 0) || (fn = Max && c > 0) then acc.extremum <- v
       end
     | Count, _ -> ()
     | _, Value.Null -> ())

let finish fn acc ~group_size =
  match fn with
  | Count -> Value.Int acc.count
  | Sum ->
    if acc.count = 0 then Value.Null
    else if acc.saw_float then Value.Float (acc.sum_float +. Float.of_int acc.sum_int)
    else Value.Int acc.sum_int
  | Avg ->
    if acc.count = 0 then Value.Null
    else
      Value.Float
        ((acc.sum_float +. Float.of_int acc.sum_int) /. Float.of_int acc.count)
  | Min | Max ->
    ignore group_size;
    acc.extremum

let apply spec rows =
  let k = List.length spec.group_by in
  let module Key = struct
    type t = Value.t array

    let equal a b = Array.length a = Array.length b && Array.for_all2 Value.equal a b
    let hash a = Array.fold_left (fun h v -> (h * 31) + Value.hash v) 17 a
  end in
  let module Groups = Hashtbl.Make (Key) in
  let groups : (int ref * acc array) Groups.t = Groups.create 64 in
  let order = ref [] in
  List.iter
    (fun row ->
       let key = Array.sub row 0 k in
       let size, accs =
         match Groups.find_opt groups key with
         | Some entry -> entry
         | None ->
           let entry = (ref 0, Array.of_list (List.map (fun _ -> fresh_acc ()) spec.aggs)) in
           Groups.add groups key entry;
           order := key :: !order;
           entry
       in
       incr size;
       List.iteri
         (fun i agg ->
            let v =
              match agg.a_arg_pos with
              | Some pos -> row.(pos)
              | None -> Value.Int 1  (* star-count: every row counts *)
            in
            feed agg.a_fn accs.(i) v)
         spec.aggs)
    rows;
  (* Global aggregation yields one row even over no input. *)
  if k = 0 && Groups.length groups = 0 && spec.aggs <> [] then begin
    let accs = Array.of_list (List.map (fun _ -> fresh_acc ()) spec.aggs) in
    Groups.add groups [||] (ref 0, accs);
    order := [||] :: !order
  end;
  List.rev_map
    (fun key ->
       let size, accs = Groups.find groups key in
       let aggs = Array.of_list spec.aggs in
       Array.of_list
         (List.map
            (function
              | `Group g -> key.(g)
              | `Agg a -> finish aggs.(a).a_fn accs.(a) ~group_size:!size)
            spec.output))
    !order
