(** A grammar is a named set of rules — the machine-dependent input from
    which the pattern matcher is generated (paper Fig. 2, "iburg pattern
    matcher generator"). *)

type t = private { name : string; rules : Rule.t list; start : string }

val make : name:string -> start:string -> Rule.t list -> t
(** Builds a grammar after {!check}-ing it.
    @raise Invalid_argument when the rule set is ill-formed. *)

val check : start:string -> Rule.t list -> (unit, string) result
(** Rule names must be unique; every nonterminal used in a pattern must be
    produced by some rule; the start nonterminal must be produced; chain
    rules must not form a zero-cost cycle (which would make "cheapest
    derivation" ill-defined). *)

val nonterms : t -> string list
(** All nonterminals, sorted. *)

val pp : Format.formatter -> t -> unit
