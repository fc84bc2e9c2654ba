type h = { node : Tree.t; id : int; size : int; kids : h array }

(* Shallow shape of a node: constructor, operator, and child *ids*.  With
   children already canonical, two nodes are structurally equal iff their
   keys are equal, so the table never hashes or compares a subtree — every
   probe is O(1) regardless of tree depth.  (Keying on the tree itself with
   the polymorphic hash would re-traverse subtrees at every probe: the
   depth-bounded [Hashtbl.hash] does not short-circuit on sharing.) *)
type key =
  | K_const of int
  | K_ref of Mref.t
  | K_unop of Op.unop * int
  | K_binop of Op.binop * int * int

(* The intern table is shared by every domain of the process (the compile
   server's whole point is one interning table for the fleet), so it is
   lock-striped: keys hash to one of [shard_bits] independent shards, each
   a plain Hashtbl behind its own mutex.  A probe takes exactly one
   uncontended lock on the single-domain path (cheap: futex fast path),
   and concurrent domains interning unrelated structures proceed in
   parallel.  Two domains racing to intern the *same* structure serialize
   on its shard: the loser finds the winner's handle, so canonicality
   (one id, one physical node per structure) holds across domains.

   The per-shard hit/miss counters ride under the shard lock — cheaper
   than contended process-wide atomics on the hot path.

   Shard and bucket indices come from disjoint bits of one hash: each
   shard's Hashtbl takes its bucket from the low bits of the same unseeded
   [Hashtbl.hash key], so a shard index from those bits would leave 63 of
   every 64 buckets of a shard empty.  Bits 24-29, the top of the 30-bit
   hash, reach a bucket index only past 2^24 buckets in one shard. *)
let shard_bits = 6

let shard_count = 1 lsl shard_bits

type shard = {
  lock : Mutex.t;
  table : (key, h) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let shards =
  Array.init shard_count (fun _ ->
      {
        lock = Mutex.create ();
        table = Hashtbl.create 256;
        hits = 0;
        misses = 0;
      })

let shard_shift = 30 - shard_bits

let shard_of key =
  shards.((Hashtbl.hash key lsr shard_shift) land (shard_count - 1))

(* Monotonic across [clear]: an id is never reused, so tables keyed by id
   (matcher memos) can survive a table reset — stale keys simply never hit
   again.  Atomic because ids are minted concurrently from every domain. *)
let next_id = Atomic.make 0

type stats = { live : int; hits : int; misses : int }

(* [build] only assembles a node from already-interned children — it never
   re-enters the table — so running it under the shard lock is safe and
   makes insertion atomic with the miss check (no duplicate handles under
   a race). *)
let probe key build =
  let s = shard_of key in
  Mutex.lock s.lock;
  match Hashtbl.find_opt s.table key with
  | Some h ->
    s.hits <- s.hits + 1;
    Mutex.unlock s.lock;
    h
  | None ->
    s.misses <- s.misses + 1;
    let node, size, kids = build () in
    let h = { node; id = Atomic.fetch_and_add next_id 1; size; kids } in
    Hashtbl.replace s.table key h;
    Mutex.unlock s.lock;
    h

let no_kids = [||]

let const k = probe (K_const k) (fun () -> (Tree.Const k, 1, no_kids))
let ref_ r = probe (K_ref r) (fun () -> (Tree.Ref r, 1, no_kids))
let var name = ref_ (Mref.scalar name)

let unop op a =
  probe (K_unop (op, a.id)) (fun () ->
      (Tree.Unop (op, a.node), 1 + a.size, [| a |]))

let binop op a b =
  probe (K_binop (op, a.id, b.id)) (fun () ->
      (Tree.Binop (op, a.node, b.node), 1 + a.size + b.size, [| a; b |]))

(* Like the smart constructors, but reusing [t] itself as the canonical
   node when its children already were canonical — re-interning a tree
   that came out of the table allocates nothing. *)
let rec intern (t : Tree.t) =
  match t with
  | Tree.Const k -> const k
  | Tree.Ref r -> ref_ r
  | Tree.Unop (op, a) ->
    let ha = intern a in
    probe (K_unop (op, ha.id)) (fun () ->
        let node = if ha.node == a then t else Tree.Unop (op, ha.node) in
        (node, 1 + ha.size, [| ha |]))
  | Tree.Binop (op, a, b) ->
    let ha = intern a in
    let hb = intern b in
    probe (K_binop (op, ha.id, hb.id)) (fun () ->
        let node =
          if ha.node == a && hb.node == b then t
          else Tree.Binop (op, ha.node, hb.node)
        in
        (node, 1 + ha.size + hb.size, [| ha; hb |]))

let node h = h.node
let id h = h.id

let stats () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let r =
        {
          live = acc.live + Hashtbl.length s.table;
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
        }
      in
      Mutex.unlock s.lock;
      r)
    { live = 0; hits = 0; misses = 0 }
    shards

let max_chain () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let longest = (Hashtbl.stats s.table).Hashtbl.max_bucket_length in
      Mutex.unlock s.lock;
      max acc longest)
    0 shards

let clear () =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      Hashtbl.reset s.table;
      s.hits <- 0;
      s.misses <- 0;
      Mutex.unlock s.lock)
    shards
