(** Hash-consing for {!Tree}: one canonical physical node per tree
    structure, carried by a handle with a unique id.

    A handle pairs the canonical node with its id, its size, and the
    handles of its children. The intern table is keyed on the {e shallow}
    shape of a node — constructor, operator, and child {e ids} — so once
    children are interned, interning a node is one O(1) probe that never
    traverses or hashes a subtree. That is what the selection path trades
    on: variant generation rebuilds rewrite spines with the handle-based
    smart constructors (O(1) per spine node), and the BURG matcher keys
    its shared DP table on {!type-h}[.id], so structurally equal subtrees
    across variants, trees, and whole batch jobs collapse to one table
    entry labelled once per matcher lifetime.

    Canonical nodes are ordinary {!Tree.t} values — every existing pattern
    match and traversal works on [h.node] unchanged — and two structurally
    equal interned trees share all their subtree nodes, so structural
    equality of canonical nodes coincides with physical equality ([==]).

    The intern table is process-wide and grows monotonically, shared by
    every job of a batch or serve pool. Ids are never reused, even across
    {!clear}, so id-keyed memo tables stay sound — entries for dropped
    nodes just stop hitting.

    The table is domain-safe: it is lock-striped into independent shards,
    so any number of OCaml 5 domains (the [record serve] worker pool) may
    intern concurrently. Probes on distinct shards run in parallel; two
    domains racing to intern the same structure serialize on its shard and
    agree on one canonical handle (same id, same physical node). Ids are
    minted from one atomic counter, so they are process-unique but their
    numeric order depends on scheduling — nothing may derive meaning from
    id magnitude beyond identity.

    Invariant: an interior key's shard and its slot within the shard come
    from disjoint bits of one mixing hash of the key. An interior node's
    key is two ints (operator tag with the first child's id, and the
    second child's id), kept inline in the shard's flat open-addressing
    table; the shard is bits 56-61 of the hash and the slot its low bits,
    which reach bit 56 only past 2{^56} slots per shard. Were both taken
    from the low bits, every key of a shard would share the low six bits
    of its home slot, one slot in 64 would be a home, and linear probing
    would pile each shard's keys into clusters some thirty long — the
    table would stay correct but stop being O(1). {!max_chain} watches
    this. Leaves (constants and references) sit in a small table per
    shard. *)

type h = private {
  node : Tree.t;  (** the canonical node *)
  id : int;  (** unique per distinct structure; ids are never reused *)
  size : int;  (** node count, O(1) (unlike {!Tree.size}, which walks) *)
  kids : h array;
      (** handles of the children, in constructor order (do not mutate) *)
}

val intern : Tree.t -> h
(** The canonical handle of the tree. One shallow O(1) probe per node —
    O(size) overall, whether or not the structure was seen before. Hot
    paths should intern once and stay in handles. *)

val node : h -> Tree.t
val id : h -> int

(** {1 Smart constructors}

    Like the {!Tree} constructors, on handles: one shallow probe, no
    traversal. [node (binop op a b) == Tree.Binop (op, node a, node b)]
    up to canonicalization. *)

val const : int -> h
val ref_ : Mref.t -> h
val var : string -> h
(** [var x] is [ref_ (Mref.scalar x)]. *)

val unop : Op.unop -> h -> h
val binop : Op.binop -> h -> h -> h

(** {1 Introspection} *)

type stats = {
  live : int;  (** distinct nodes currently interned *)
  hits : int;  (** intern probes answered from the table *)
  misses : int;  (** nodes interned fresh *)
}

val stats : unit -> stats
(** Counters summed over the shards: O(shards), cheap enough per job. *)

val max_chain : unit -> int
(** The longest probe run of the interior table: the longest run of
    occupied slots in any shard, which is the most keys one probe may
    compare against (a probe that misses at the run's first slot walks
    all of it). Each shard's table doubles once it is half full; with
    shard and slot on disjoint hash bits the longest run is about ten
    slots at 30% load and stays in the tens at half load, where with
    shared bits it is about thirty and forty. Computed on demand by
    walking every slot of every shard — O(slots), a few milliseconds at
    a hundred thousand nodes — so it is kept apart from {!stats}, and the
    probes keep no run statistics. *)

val clear : unit -> unit
(** Drop the table (counters reset, ids keep increasing). Canonicality of
    previously returned nodes is lost; subsequent interns of equal
    structures yield fresh handles with fresh ids. *)
