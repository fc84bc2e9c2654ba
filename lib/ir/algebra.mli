(** Algebraic tree transformations.

    RECORD (§4.3.3) generates equivalent variants of each data-flow tree with
    algebraic rules, matches each variant, and keeps the cheapest cover. This
    module produces a bounded, deduplicated set of semantically equal trees.

    Constant folding and identity simplification live behind [`Fold`] because
    the paper's RECORD explicitly does {e not} perform them; enabling them is
    an ablation. *)

type rule =
  | Commute  (** a ⊕ b → b ⊕ a for commutative ⊕ *)
  | Assoc  (** (a ⊕ b) ⊕ c ↔ a ⊕ (b ⊕ c) for associative ⊕ *)
  | Mul_to_shift  (** a * 2^k ↔ a shl k *)
  | Fold  (** constant folding and x+0, x*1, x*0, --x identities *)

val default_rules : rule list
(** [Commute; Assoc; Mul_to_shift] — the paper's configuration. *)

type counters = {
  mutable explored : int;  (** variants admitted (the original included) *)
  mutable pruned : int;  (** candidates discarded because [limit] was hit *)
  mutable dedup_hits : int;  (** candidates already in the closure *)
  mutable state_prunes : int;
      (** variants dropped from the output by [prune_key] equivalence *)
}
(** Cheap instrumentation of one or more {!variants} runs; the pipeline
    accumulates one record per compilation and surfaces it as the
    [selection] stats of {!Record.Pipeline.compiled}. *)

val fresh_counters : unit -> counters

val hvariants :
  ?rules:rule list ->
  ?limit:int ->
  ?counters:counters ->
  ?prune_key:(Hashcons.h -> int option) ->
  Hashcons.h ->
  Hashcons.h list
(** Breadth-first closure of the one-step rewrites starting from the
    handle, deduplicated on hash-cons ids, capped at [limit] results
    (default 64). The original is always the first element, and every
    result is canonical, so the whole variant set shares subtree nodes.
    Raising [limit] extends the enumeration: the result at a lower limit
    is a prefix of the result at a higher one. [counters] fields are
    incremented (never reset) when given. This is the selection hot path
    — no tree is hashed or traversed beyond the rewrite positions.

    The rewrite lists a search builds live only as long as the call.
    Each domain keeps its last {!max_searches} finished searches, keyed
    by rule set, limit and the handle's id, so a tree searched again
    skips the search: the kept list, pruned by this call's [prune_key],
    and the same counters come back. A search stopped by
    {!Deadline.Expired} is not kept and counts nothing.

    [prune_key] enables state-equivalence pruning: when two variants map
    to the same key ([Some k]), their covers are guaranteed cost-equal
    (the BURS matcher's {!Matcher.state_key} contract), so only the
    earlier one is kept in the output. Pruned variants still count
    toward [limit] and still feed the BFS frontier, so the surviving
    list is exactly the unpruned enumeration minus cost-duplicates —
    deterministic and still prefix-stable across limits. [None] from the
    key function (or omitting it) disables pruning for that variant. *)

val max_searches : int
(** The most finished searches a domain keeps for {!hvariants}: each holds
    at most [limit] variants. *)

val searches_held : unit -> int
(** The number of finished searches the calling domain keeps. *)

val variants :
  ?rules:rule list ->
  ?limit:int ->
  ?counters:counters ->
  ?prune_key:(Hashcons.h -> int option) ->
  Tree.t ->
  Tree.t list
(** [hvariants] on the interned tree, as plain trees. *)

val equivalent : ?width:int -> Tree.t -> Tree.t -> bool
(** Checks semantic equality on a deterministic battery of assignments to the
    trees' references (used by tests; sound for the rule set above, which is
    semantics-preserving by construction). *)
