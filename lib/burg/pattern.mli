(** Tree patterns of instruction-selection rules (the left-hand sides of an
    iburg grammar, paper Fig. 4). *)

type t =
  | Nonterm of string  (** match any subtree derivable to this nonterminal *)
  | Const_any  (** match any [Tree.Const] *)
  | Const_eq of int  (** match a specific constant *)
  | Ref_any  (** match any [Tree.Ref] *)
  | Unop of Ir.Op.unop * t
  | Binop of Ir.Op.binop * t * t

val nonterms : t -> string list
(** Nonterminal leaves in left-to-right order (with duplicates). *)

val depth : t -> int

(** Root shape of a pattern or a subject node: a base rule can only match
    a node of its pattern's root shape, so both labelling engines bucket
    rules by it. *)
type shape = S_const | S_ref | S_unop of Ir.Op.unop | S_binop of Ir.Op.binop

val root_shape : t -> shape option
(** [None] for a [Nonterm] root (a chain rule's pattern); [Const_any] and
    [Const_eq] share [S_const]. *)

val node_shape : Ir.Tree.t -> shape

val bindings : t -> Ir.Hashcons.h -> (string * Ir.Hashcons.h) list option
(** Structural match of the pattern against a subject handle: the handles
    bound to the pattern's nonterminal leaves, in left-to-right order, or
    [None] when the shapes differ. Guards are not consulted. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
