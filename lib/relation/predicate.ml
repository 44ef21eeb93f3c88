module Value = Ghost_kernel.Value

type comparison =
  | Eq of Value.t
  | Ne of Value.t
  | Lt of Value.t
  | Le of Value.t
  | Gt of Value.t
  | Ge of Value.t
  | Between of Value.t * Value.t
  | In of Value.t list
  | Prefix of string

type t = {
  table : string;
  column : string;
  cmp : comparison;
}

let make ~table ~column cmp = { table; column; cmp }

let prefix_upper p =
  let rec bump i =
    if i < 0 then None
    else if Char.code p.[i] < 0xFF then
      Some (String.sub p 0 i ^ String.make 1 (Char.chr (Char.code p.[i] + 1)))
    else bump (i - 1)
  in
  bump (String.length p - 1)

let eval cmp v =
  if Value.is_null v then false
  else
    match cmp with
    | Eq x -> Value.compare v x = 0
    | Ne x -> Value.compare v x <> 0
    | Lt x -> Value.compare v x < 0
    | Le x -> Value.compare v x <= 0
    | Gt x -> Value.compare v x > 0
    | Ge x -> Value.compare v x >= 0
    | Between (lo, hi) -> Value.compare v lo >= 0 && Value.compare v hi <= 0
    | In xs -> List.exists (fun x -> Value.compare v x = 0) xs
    | Prefix p ->
      (match v with
       | Value.Str s ->
         let s = Value.to_string (Value.Str s) in
         String.length s >= String.length p && String.sub s 0 (String.length p) = p
       | Value.Null | Value.Int _ | Value.Float _ | Value.Date _ -> false)

let holds p v = eval p.cmp v

let comparison_to_string = function
  | Eq x -> Printf.sprintf "= %s" (Value.to_string x)
  | Ne x -> Printf.sprintf "<> %s" (Value.to_string x)
  | Lt x -> Printf.sprintf "< %s" (Value.to_string x)
  | Le x -> Printf.sprintf "<= %s" (Value.to_string x)
  | Gt x -> Printf.sprintf "> %s" (Value.to_string x)
  | Ge x -> Printf.sprintf ">= %s" (Value.to_string x)
  | Between (lo, hi) ->
    Printf.sprintf "BETWEEN %s AND %s" (Value.to_string lo) (Value.to_string hi)
  | In xs ->
    Printf.sprintf "IN (%s)" (String.concat ", " (List.map Value.to_string xs))
  | Prefix p -> Printf.sprintf "LIKE '%s%%'" p

let to_string p = Printf.sprintf "%s.%s %s" p.table p.column (comparison_to_string p.cmp)
let pp fmt p = Format.pp_print_string fmt (to_string p)
