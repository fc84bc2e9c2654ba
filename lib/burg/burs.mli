(** Table-driven BURS automaton: the offline half of the matcher.

    [create] compiles a {!Grammar} into a tree automaton once per target:
    itemset states (one item per derivable nonterminal, cost stored as a
    {e delta} over the state's cheapest item), chain-rule closure folded
    into the states, and per-operator transition tables keyed on child
    states.  Labelling a subject tree is then a single bottom-up pass
    that assigns each hash-cons id a packed [(base, state)] slot in a
    lock-free {!Ir.Idtab} — one int load per revisited node, no hashing,
    no per-node DP.

    Multi-level patterns are normalized into one-level rules over fresh
    internal "fragment" nonterminals (cost 0, never exposed), so a
    state's item set fully determines the relative cost of {e every}
    rule — including deep ones — at any node that reaches it.  Two nodes
    with the same packed slot therefore have identical derivation costs
    for all nonterminals, which is what justifies pruning tree variants
    by state equivalence upstream.

    Guards and dynamic costs are supported by folding their outcomes
    into the transition signature, so memoized transitions never merge
    nodes that a guard would distinguish.  Guard and [dyn_cost] functions
    must be pure and total: they may be evaluated on trees the grammar
    never selects for (transition-signature probes, offline warm-up).

    Costs, tie-breaks (earlier rule wins), and chain-closure order are
    byte-compatible with the DP labeller in {!Matcher}: both engines
    produce identical {!Cover} derivations. *)

type t

val create : Grammar.t -> t
(** Builds the automaton and warms it offline: representative trees are
    driven through every operator of the grammar until the state/
    transition tables stop growing (bounded), so serve-pool domains
    labelling real programs almost never take the construction lock.
    @raise Invalid_argument if a nonterminal collides with the internal
    fragment namespace or a dynamic cost drives a derivation negative. *)

val grammar : t -> Grammar.t

(** {1 Labelling} *)

val state_key : t -> Ir.Hashcons.h -> int
(** The packed [(cost base, state id)] slot of the subtree — a single
    non-zero int.  Two subtrees with equal keys derive exactly the same
    nonterminals at exactly the same costs (and with the same winning
    rules), so one can stand in for the other during variant search. *)

val label : t -> Ir.Hashcons.h -> (string * int) list
(** Derivable (real) nonterminals with their best costs, sorted by
    name — same contract as {!Matcher.label}. *)

val best_cost : ?nt:string -> t -> Ir.Hashcons.h -> int option
(** Best derivation cost for [nt] (default: the grammar start), without
    materializing the cover — O(1) after the subtree is labelled. *)

val best_cover : ?nt:string -> t -> Ir.Hashcons.h -> Cover.t option
(** The winning derivation, rebuilt from the state's recorded rule
    choices.  Byte-identical to the DP matcher's cover. *)

(** {1 Introspection} *)

val state_count : t -> int
val transition_count : t -> int

val build_ms : t -> float
(** Wall-clock milliseconds spent constructing states and transitions:
    the [create]-time warm-up plus any residual demand-built transitions
    (first time a node shape is seen). *)

val nodes_labelled : t -> int
(** Distinct hash-cons ids assigned a state (volatile counter). *)

val memo_hits : t -> int
(** Labelling probes answered by the slot table (volatile counter). *)

(** {1 Diagnostics} *)

type diag =
  | Chain_cycle of string list
      (** chain rules form a cycle through these nonterminals (legal when
          some edge costs > 0, but worth knowing) *)
  | Zero_cost_chain_cycle of string list
      (** a zero-static-cost chain cycle: "cheapest derivation" is
          ill-defined; {!Grammar.make} rejects these *)
  | Unreachable_nonterm of string
      (** produced by some rule but unreachable from the start symbol *)
  | Op_without_rules of string
      (** no rule's pattern is rooted at this operator, so any tree
          rooted there is uncoverable *)

val diagnose : start:string -> Rule.t list -> diag list
(** Structural health check over a raw rule list (no {!Grammar.make}
    required, so ill-formed sets can be probed without raising).
    Returns every named degeneracy found; never loops or crashes. *)

val diag_to_string : diag -> string
