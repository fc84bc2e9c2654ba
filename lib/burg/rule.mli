(** Instruction-selection rules: [lhs <- pattern] with a cost, an optional
    guard, and a name. A machine pairs each rule value with its emitter and
    finds it by physical equality, so the name only labels the rule: in
    [record rules], in printed covers, in {!Grammar.check}'s uniqueness
    error and in the BURS automaton's fragment nonterminals. *)

type t = {
  name : string;  (** unique within a grammar; labels the rule *)
  lhs : string;  (** nonterminal produced *)
  pattern : Pattern.t;
  cost : int;  (** static cost (instruction words by convention) *)
  dyn_cost : (Ir.Tree.t -> int) option;
      (** cost as a function of the matched subtree; overrides [cost] when
          present (iburg's dynamic costs) *)
  guard : (Ir.Tree.t -> bool) option;
      (** extra applicability predicate, applied to the subtree matched by
          the whole pattern (immediate ranges, stride restrictions, …) *)
}

val make : ?guard:(Ir.Tree.t -> bool) -> ?dyn_cost:(Ir.Tree.t -> int)
  -> name:string -> lhs:string -> cost:int -> Pattern.t -> t

val cost_at : t -> Ir.Tree.t -> int
(** The rule's cost when matched at the given subtree. *)

val is_chain : t -> bool
(** A chain rule derives a nonterminal directly from another nonterminal. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
