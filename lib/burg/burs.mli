(** Table-driven BURS automaton, built on demand.

    A {!Grammar} becomes a tree automaton: itemset states (one item per
    derivable nonterminal, cost stored as a {e delta} over the state's
    cheapest item), chain-rule closure folded into the states, and
    per-operator transition tables keyed on child states.  [create] only
    normalizes and buckets the rules; a state or transition is built the
    first time labelling reaches a node that needs it, and memoized from
    then on, so the automaton holds only the states its subject trees
    reach.  Labelling is a single bottom-up pass that assigns each
    hash-cons id a packed [(base, state)] slot in a lock-free
    {!Ir.Idtab} — one int load per revisited node, and one hash probe of
    the transition table (under the construction lock) per node's first
    visit.

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
    never selects for (transition-signature probes).

    Costs, tie-breaks (earlier rule wins), and chain-closure order are
    byte-compatible with the DP labeller in {!Matcher}: both engines
    produce identical {!Cover} derivations. *)

type t

val create : Grammar.t -> t
(** Normalizes and buckets the grammar's rules. No state, transition or
    hash-consed node is created: labelling builds them on demand.
    @raise Invalid_argument if a nonterminal collides with the internal
    fragment namespace. *)

val grammar : t -> Grammar.t

(** {1 Labelling} *)

val state_key : t -> Ir.Hashcons.h -> int
(** The packed [(cost base, state id)] slot of the subtree — a single
    non-zero int.  Two subtrees with equal keys derive exactly the same
    nonterminals at exactly the same costs (and with the same winning
    rules), so one can stand in for the other during variant search.
    @raise Invalid_argument if a dynamic cost drives a derivation cost
    in the subtree negative. *)

val label : t -> Ir.Hashcons.h -> (string * int) list
(** Derivable (real) nonterminals with their best costs, sorted by
    name — same contract as {!Matcher.label}.
    @raise Invalid_argument if a dynamic cost drives a derivation cost
    in the subtree negative. *)

val best_cost : ?nt:string -> t -> Ir.Hashcons.h -> int option
(** Best derivation cost for [nt] (default: the grammar start), without
    materializing the cover — O(1) after the subtree is labelled.
    @raise Invalid_argument if a dynamic cost drives a derivation cost
    in the subtree negative. *)

val best_cover : ?nt:string -> t -> Ir.Hashcons.h -> Cover.t option
(** The winning derivation, rebuilt from the state's recorded rule
    choices.  Byte-identical to the DP matcher's cover.
    @raise Invalid_argument if a dynamic cost drives a derivation cost
    in the subtree negative. *)

(** {1 Introspection} *)

val state_count : t -> int
val transition_count : t -> int

val build_ms : t -> float
(** Wall-clock milliseconds spent building states and transitions, summed
    over the labellings that needed a new transition. *)

val nodes_labelled : t -> int
(** Distinct hash-cons ids assigned a state (volatile counter). *)

val memo_hits : t -> int
(** Labelling probes answered by the slot table (volatile counter). *)
