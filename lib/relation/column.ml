module Value = Ghost_kernel.Value

type visibility =
  | Visible
  | Hidden

type t = {
  name : string;
  ty : Value.ty;
  visibility : visibility;
  refs : string option;
}

let make ?(visibility = Visible) ?refs name ty =
  (match refs, ty with
   | Some _, Value.T_int | None, _ -> ()
   | Some _, (Value.T_float | Value.T_date | Value.T_char _) ->
     invalid_arg "Column.make: a foreign key must be an INTEGER column");
  { name; ty; visibility; refs }

let is_hidden c = c.visibility = Hidden
let is_foreign_key c = c.refs <> None

let pp fmt c =
  Format.fprintf fmt "%s %s%s%s" c.name (Value.ty_name c.ty)
    (match c.refs with
     | Some t -> Printf.sprintf " REFERENCES %s" t
     | None -> "")
    (if c.visibility = Hidden then " HIDDEN" else "")
