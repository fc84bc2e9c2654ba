type t =
  | Nonterm of string
  | Const_any
  | Const_eq of int
  | Ref_any
  | Unop of Ir.Op.unop * t
  | Binop of Ir.Op.binop * t * t

let nonterms p =
  let rec go acc = function
    | Nonterm nt -> nt :: acc
    | Const_any | Const_eq _ | Ref_any -> acc
    | Unop (_, a) -> go acc a
    | Binop (_, a, b) -> go (go acc a) b
  in
  List.rev (go [] p)

type shape = S_const | S_ref | S_unop of Ir.Op.unop | S_binop of Ir.Op.binop

let root_shape = function
  | Const_any | Const_eq _ -> Some S_const
  | Ref_any -> Some S_ref
  | Unop (op, _) -> Some (S_unop op)
  | Binop (op, _, _) -> Some (S_binop op)
  | Nonterm _ -> None

let node_shape = function
  | Ir.Tree.Const _ -> S_const
  | Ir.Tree.Ref _ -> S_ref
  | Ir.Tree.Unop (op, _) -> S_unop op
  | Ir.Tree.Binop (op, _, _) -> S_binop op

(* Shapes via the canonical node, descent via the child handles, so no
   tree is ever rebuilt or hashed. *)
let rec bindings p (h : Ir.Hashcons.h) =
  match (p, h.Ir.Hashcons.node) with
  | Nonterm nt, _ -> Some [ (nt, h) ]
  | Const_any, Ir.Tree.Const _ -> Some []
  | Const_eq k, Ir.Tree.Const k' -> if k = k' then Some [] else None
  | Ref_any, Ir.Tree.Ref _ -> Some []
  | Unop (op, pa), Ir.Tree.Unop (op', _) when op = op' ->
    bindings pa h.Ir.Hashcons.kids.(0)
  | Binop (op, pa, pb), Ir.Tree.Binop (op', _, _) when op = op' -> (
    match bindings pa h.Ir.Hashcons.kids.(0) with
    | None -> None
    | Some la -> (
      match bindings pb h.Ir.Hashcons.kids.(1) with
      | None -> None
      | Some lb -> Some (la @ lb)))
  | ( (Const_any | Const_eq _ | Ref_any | Unop _ | Binop _),
      (Ir.Tree.Const _ | Ir.Tree.Ref _ | Ir.Tree.Unop _ | Ir.Tree.Binop _) ) ->
    None

let rec depth = function
  | Nonterm _ | Const_any | Const_eq _ | Ref_any -> 1
  | Unop (_, a) -> 1 + depth a
  | Binop (_, a, b) -> 1 + max (depth a) (depth b)

let rec to_string = function
  | Nonterm nt -> nt
  | Const_any -> "#"
  | Const_eq k -> Printf.sprintf "#%d" k
  | Ref_any -> "ref"
  | Unop (op, a) -> Printf.sprintf "%s(%s)" (Ir.Op.unop_name op) (to_string a)
  | Binop (op, a, b) ->
    Printf.sprintf "%s(%s,%s)" (Ir.Op.binop_name op) (to_string a)
      (to_string b)

let pp ppf p = Format.pp_print_string ppf (to_string p)
