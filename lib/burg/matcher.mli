(** Bottom-up dynamic-programming tree covering (Aho/Ganapathi/Tjiang;
    the engine iburg generates). Given a grammar, labels every tree node with
    the cheapest derivation per nonterminal and extracts the optimal cover.

    A matcher memoizes labellings across calls, which is what makes matching
    "each variant" of a tree cheap (§4.3.3). The memo is keyed on hash-cons
    ids ({!Ir.Hashcons}), so the DP table is shared across all variants of
    all trees a matcher ever sees: a structurally repeated subtree is
    labelled once per matcher lifetime, at O(1) lookup cost per node. A
    matcher depends only on its grammar, never on program state, so one
    long-lived matcher per target can serve any number of compilations
    (which is how the driver's batch service uses it).

    A matcher is domain-safe, so the serve pool's domains share one warm
    matcher per target. The [Table] engine reads its slots lock-free and
    takes a lock only to build a state or transition; the [Dp] engine
    takes one lock per table probe, and two domains racing to label the
    same node both compute the (deterministic) labelling while the table
    keeps exactly one copy. *)

type t

type engine =
  | Dp
      (** the original on-demand DP labeller: the differential reference
          the tests hold the automaton to, not a production path *)
  | Table
      (** the {!Burs} automaton: tables built on demand, lock-free slots;
          every CLI subcommand and job labels with it *)

val create : ?engine:engine -> Grammar.t -> t
(** Builds a matcher for the grammar. The default engine is [Table].
    Creation only buckets the rules: the BURS automaton's states and
    transitions are built when labelling first needs each one, so a
    long-lived matcher — one per target, shared by the serve pool —
    builds each once, and only those its programs reach. *)

val engine : t -> engine

val engine_name : engine -> string
(** ["dp"] or ["table"], as the compiler's option fingerprint spells it. *)

val grammar : t -> Grammar.t

val state_key : t -> Ir.Hashcons.h -> int option
(** [Table] engine: the packed (cost base, state id) slot of the subtree —
    equal keys mean identical derivation costs for every nonterminal, so
    variant search can prune on it. [None] on the [Dp] engine (which has
    no state abstraction, hence no sound prune key).
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val state_count : t -> int
(** Automaton states built so far ([Table]; 0 on [Dp], and 0 after
    [create]). *)

val transition_count : t -> int
(** Automaton transitions built so far ([Table]; 0 on [Dp], and 0 after
    [create]). *)

val table_build_ms : t -> float
(** Wall-clock ms spent so far building automaton states and transitions
    ([Table]; 0 on [Dp]). *)

type counters = {
  nodes_labelled : int;
      (** distinct subtrees labelled (DP-table entries computed) *)
  memo_hits : int;  (** labellings served from the shared table *)
}

val counters : t -> counters
(** Monotonic totals since [create]; snapshot before and after a
    compilation to get per-run deltas. *)

val label : t -> Ir.Tree.t -> (string * int) list
(** Nonterminals derivable at the root with their minimal costs, sorted by
    nonterminal name.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val best : ?nt:string -> t -> Ir.Tree.t -> Cover.t option
(** Cheapest derivation of the tree to [nt] (default: the grammar's start
    nonterminal), or [None] when the tree cannot be covered.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val best_h : ?nt:string -> t -> Ir.Hashcons.h -> Cover.t option
(** [best] on an already-interned handle — the hot path: labelling
    descends the handle DAG with O(1) id-keyed probes and never hashes a
    tree.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val best_with_cost :
  ?nt:string -> t -> Ir.Hashcons.h -> (Cover.t * int) option
(** [best_h] plus the DP entry's cost — what variant-ranking selectors
    compare without a [Cover.cost] walk per candidate.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val best_of_variants : ?nt:string -> t -> Ir.Tree.t list -> (Ir.Tree.t * Cover.t) option
(** The variant with the cheapest cover; ties break toward the earlier
    variant. [None] when no variant can be covered.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)

val best_of_hvariants :
  ?nt:string -> t -> Ir.Hashcons.h list -> (Ir.Hashcons.h * Cover.t) option
(** [best_of_variants] on handles (as produced by
    {!Ir.Algebra.hvariants}), skipping re-interning.
    @raise Invalid_argument on the [Table] engine if a dynamic cost
    drives a derivation cost negative. *)
