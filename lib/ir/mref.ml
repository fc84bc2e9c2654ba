type index =
  | Direct
  | Elem of int
  | Induct of { ivar : string; offset : int; step : int }

type t = { base : string; index : index }

let scalar base = { base; index = Direct }

let elem base k =
  assert (k >= 0);
  { base; index = Elem k }

let induct ?(offset = 0) ?(step = 1) base ~ivar =
  if step <> 1 && step <> -1 then invalid_arg "Mref.induct: step must be ±1";
  { base; index = Induct { ivar; offset; step } }

let equal a b = a = b
let compare = Stdlib.compare

let ivars r =
  match r.index with
  | Direct | Elem _ -> []
  | Induct { ivar; _ } -> [ ivar ]

let add_to_buffer b r =
  let int k = Decimal.add_int b k in
  Buffer.add_string b r.base;
  match r.index with
  | Direct -> ()
  | Elem k ->
    Buffer.add_char b '[';
    int k;
    Buffer.add_char b ']'
  | Induct { ivar; offset; step } ->
    Buffer.add_char b '[';
    if step = 1 then begin
      Buffer.add_string b ivar;
      if offset > 0 then Buffer.add_char b '+';
      if offset <> 0 then int offset
    end
    else begin
      int offset;
      Buffer.add_char b '-';
      Buffer.add_string b ivar
    end;
    Buffer.add_char b ']'

let to_string r =
  match r.index with
  | Direct -> r.base
  | Elem _ | Induct _ ->
    let b = Buffer.create 16 in
    add_to_buffer b r;
    Buffer.contents b

let pp ppf r = Format.pp_print_string ppf (to_string r)
