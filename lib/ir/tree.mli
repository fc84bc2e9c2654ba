(** Expression trees: the data-flow trees that instruction patterns cover
    (paper Fig. 4 / Fig. 5). *)

type t =
  | Const of int
  | Ref of Mref.t
  | Unop of Op.unop * t
  | Binop of Op.binop * t * t

val equal : t -> t -> bool
val compare : t -> t -> int

val size : t -> int
(** Number of nodes. *)

val depth : t -> int

val refs : t -> Mref.t list
(** All memory references, left-to-right, with duplicates. *)

val ivars : t -> string list
(** Induction variables referenced anywhere in the tree, deduplicated. *)

val map_refs : (Mref.t -> Mref.t) -> t -> t

val to_string : t -> string
val pp : Format.formatter -> t -> unit

val fold_digest : Buffer.t -> t -> unit
(** Folds a stable structural fingerprint of the tree into the buffer:
    tagged nodes, length-prefixed strings, no [Hashtbl.hash] and no
    pretty-printer output. Two trees fold equal exactly when they are
    structurally equal. {!Prog.fold_digest} uses this encoding for
    statement trees. *)

(** Convenience constructors. *)

val const : int -> t
val ref_ : Mref.t -> t
val var : string -> t
val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t
val neg : t -> t
val sat : t -> t
