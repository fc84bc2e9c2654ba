type unop = Neg | Not | Sat

type binop = Add | Sub | Mul | And | Or | Xor | Shl | Shr

let commutative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | Shl | Shr -> false

let associative = function
  | Add | Mul | And | Or | Xor -> true
  | Sub | Shl | Shr -> false

let sat_bounds width =
  let half = 1 lsl (width - 1) in
  (-half, half - 1)

let eval_unop op ~width v =
  match op with
  | Neg -> -v
  | Not -> lnot v
  | Sat ->
    let lo, hi = sat_bounds width in
    if v < lo then lo else if v > hi then hi else v

let clamp_shift n = if n < 0 then 0 else if n > 62 then 62 else n

let eval_binop op a b =
  match op with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | And -> a land b
  | Or -> a lor b
  | Xor -> a lxor b
  | Shl -> a lsl clamp_shift b
  | Shr -> a asr clamp_shift b

let unop_name = function Neg -> "neg" | Not -> "not" | Sat -> "sat"

let binop_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Mul -> "mul"
  | And -> "and"
  | Or -> "or"
  | Xor -> "xor"
  | Shl -> "shl"
  | Shr -> "shr"
