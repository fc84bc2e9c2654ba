(** Operators of the data-flow IR.

    The operator set is deliberately small and DSP-oriented: it is the
    vocabulary over which target instruction patterns (burg rules) are
    written. *)

type unop =
  | Neg  (** two's-complement negation *)
  | Not  (** bitwise complement *)
  | Sat  (** saturate to the machine word range; the DFL [sat] operator *)

type binop =
  | Add
  | Sub
  | Mul
  | And
  | Or
  | Xor
  | Shl  (** left shift; the shift amount is the right operand *)
  | Shr  (** arithmetic right shift *)

val commutative : binop -> bool
(** [commutative op] holds for operators where [a op b = b op a]. *)

val associative : binop -> bool
(** [associative op] holds for operators where [(a op b) op c = a op (b op c)]
    under exact integer semantics. *)

val eval_unop : unop -> width:int -> int -> int
(** Exact-integer semantics of a unary operator. [Sat] clamps to the signed
    range of [width] bits; other operators are exact. *)

val eval_binop : binop -> int -> int -> int
(** Exact-integer semantics of a binary operator. Shift amounts are clamped
    to [0, 62] to stay within native-int behaviour. *)

val unop_name : unop -> string
val binop_name : binop -> string
