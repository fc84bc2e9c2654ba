type t =
  | Const of int
  | Ref of Mref.t
  | Unop of Op.unop * t
  | Binop of Op.binop * t * t

let equal a b = a = b
let compare = Stdlib.compare

let rec size = function
  | Const _ | Ref _ -> 1
  | Unop (_, a) -> 1 + size a
  | Binop (_, a, b) -> 1 + size a + size b

let rec depth = function
  | Const _ | Ref _ -> 1
  | Unop (_, a) -> 1 + depth a
  | Binop (_, a, b) -> 1 + max (depth a) (depth b)

let refs t =
  let rec go acc = function
    | Const _ -> acc
    | Ref r -> r :: acc
    | Unop (_, a) -> go acc a
    | Binop (_, a, b) -> go (go acc a) b
  in
  List.rev (go [] t)

let ivars t =
  let vs = List.concat_map Mref.ivars (refs t) in
  List.sort_uniq String.compare vs

let rec map_refs f = function
  | Const k -> Const k
  | Ref r -> Ref (f r)
  | Unop (op, a) -> Unop (op, map_refs f a)
  | Binop (op, a, b) -> Binop (op, map_refs f a, map_refs f b)

let rec to_string = function
  | Const k -> string_of_int k
  | Ref r -> Mref.to_string r
  | Unop (op, a) -> Printf.sprintf "%s(%s)" (Op.unop_name op) (to_string a)
  | Binop (op, a, b) ->
    Printf.sprintf "(%s %s %s)" (to_string a) (Op.binop_name op) (to_string b)

let pp ppf t = Format.pp_print_string ppf (to_string t)

(* ---- Structural digest --------------------------------------------------- *)

(* Stable content fingerprint of one tree: every node folded with explicit
   tags and length-prefixed strings, so two trees fold equal exactly when
   they are structurally equal.  [Prog.fold_digest] folds statement trees
   with this same encoding, and the compilation cache keys on that, so it
   must stay stable across runs and processes (no [Hashtbl.hash], no
   pretty-printer output). *)
let fold_digest buf t =
  let str s =
    Decimal.add_int buf (String.length s);
    Buffer.add_char buf ':';
    Buffer.add_string buf s
  in
  let int k =
    Decimal.add_int buf k;
    Buffer.add_char buf ';'
  in
  let mref (r : Mref.t) =
    str r.base;
    match r.index with
    | Mref.Direct -> Buffer.add_char buf 'D'
    | Mref.Elem k ->
      Buffer.add_char buf 'E';
      int k
    | Mref.Induct { ivar; offset; step } ->
      Buffer.add_char buf 'I';
      str ivar;
      int offset;
      int step
  in
  let rec go t =
    match t with
    | Const k ->
      Buffer.add_char buf 'c';
      int k
    | Ref r ->
      Buffer.add_char buf 'r';
      mref r
    | Unop (op, a) ->
      Buffer.add_char buf 'u';
      str (Op.unop_name op);
      go a
    | Binop (op, a, b) ->
      Buffer.add_char buf 'b';
      str (Op.binop_name op);
      go a;
      go b
  in
  go t

let const k = Const k
let ref_ r = Ref r
let var name = Ref (Mref.scalar name)
let ( + ) a b = Binop (Op.Add, a, b)
let ( - ) a b = Binop (Op.Sub, a, b)
let ( * ) a b = Binop (Op.Mul, a, b)
let neg a = Unop (Op.Neg, a)
let sat a = Unop (Op.Sat, a)
