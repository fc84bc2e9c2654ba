type h = { node : Tree.t; id : int; size : int; kids : h array }

(* Leaf keys.  Interior nodes never build a key block: their shallow shape
   (operator tag, child ids) is two ints stored inline in a shard's flat
   table below.  Either way a probe is O(1) regardless of tree depth — the
   table never hashes or compares a subtree. *)
type leaf = K_const of int | K_ref of Mref.t

(* The intern table is shared by every domain of the process (the compile
   server's whole point is one interning table for the fleet), so it is
   lock-striped: keys hash to one of [shard_count] independent shards,
   each behind its own mutex.  A probe takes exactly one uncontended lock
   on the single-domain path (cheap: futex fast path), and concurrent
   domains interning unrelated structures proceed in parallel.  Two
   domains racing to intern the *same* structure serialize on its shard:
   the loser finds the winner's handle, so canonicality (one id, one
   physical node per structure) holds across domains.

   Interior nodes live in a flat open-addressing table per shard: slot [i]
   keeps its key in [keys.(2i)] (operator tag plus the first child's id;
   0 marks an empty slot) and [keys.(2i+1)] (the second child's id), and
   its handle in [vals.(i)].  Probing is linear; the table doubles under
   the shard's lock once it is half full.  One mixing hash of the two key
   words supplies both indices: the shard from its top bits (56-61), the
   slot from its low bits, which reach bit 56 only past 2^56 slots in one
   shard.  Were both taken from the low bits, every key of a shard would
   share the low six bits of its home slot, one slot in 64 would be a
   home, and probes would walk clusters tens of keys long.

   Leaves are few (constants and references), so each shard keeps them in
   a small Hashtbl, picking the shard from the top bits of the mixed
   [Hashtbl.hash] of the leaf.

   The per-shard hit/miss counters ride under the shard lock — cheaper
   than contended process-wide atomics on the hot path. *)
let shard_bits = 6

let shard_count = 1 lsl shard_bits
let shard_shift = 56

(* A shard starts with this many interior slots: 64 small tables cost
   little at start-up, and doubling reaches any size in a few steps. *)
let initial_slots = 16

(* Fills the empty value slots; never returned. *)
let absent = { node = Tree.Const 0; id = -1; size = 0; kids = [||] }

type shard = {
  lock : Mutex.t;
  mutable keys : int array;
  mutable vals : h array;
  mutable count : int;
  leaves : (leaf, h) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let fresh_interior () =
  (Array.make (2 * initial_slots) 0, Array.make initial_slots absent)

let shards =
  Array.init shard_count (fun _ ->
      let keys, vals = fresh_interior () in
      {
        lock = Mutex.create ();
        keys;
        vals;
        count = 0;
        leaves = Hashtbl.create 16;
        hits = 0;
        misses = 0;
      })

(* Odd multipliers below 2^62, then the high half folded onto the low. *)
let mix a b =
  let h = ((a * 0x2545F4914F6CDD1D) + b) * 0x1D8E4E27C47D124F in
  h lxor (h lsr 29)

let shard_of_hash hash = shards.((hash lsr shard_shift) land (shard_count - 1))

(* Operator tags are never 0, so a key word of 0 marks an empty slot. *)
let tag_bits = 4
let unop_tag = function Op.Neg -> 1 | Op.Not -> 2 | Op.Sat -> 3

let binop_tag = function
  | Op.Add -> 4
  | Op.Sub -> 5
  | Op.Mul -> 6
  | Op.And -> 7
  | Op.Or -> 8
  | Op.Xor -> 9
  | Op.Shl -> 10
  | Op.Shr -> 11

(* The slot holding key [(ka, kb)], or the empty slot where it belongs. *)
let rec find keys mask ka kb i =
  let k = Array.unsafe_get keys (2 * i) in
  if k = 0 || (k = ka && Array.unsafe_get keys ((2 * i) + 1) = kb) then i
  else find keys mask ka kb ((i + 1) land mask)

let slot s hash ka kb =
  let mask = Array.length s.vals - 1 in
  find s.keys mask ka kb (hash land mask)

(* Lock held. *)
let grow s =
  let old_keys = s.keys and old_vals = s.vals in
  let n = 2 * Array.length old_vals in
  let keys = Array.make (2 * n) 0 and vals = Array.make n absent in
  let mask = n - 1 in
  Array.iteri
    (fun i h ->
      let ka = old_keys.(2 * i) in
      if ka <> 0 then begin
        let kb = old_keys.((2 * i) + 1) in
        let j = find keys mask ka kb (mix ka kb land mask) in
        keys.(2 * j) <- ka;
        keys.((2 * j) + 1) <- kb;
        vals.(j) <- h
      end)
    old_vals;
  s.keys <- keys;
  s.vals <- vals

(* Monotonic across [clear]: an id is never reused, so tables keyed by id
   (matcher memos) can survive a table reset — stale keys simply never hit
   again.  Atomic because ids are minted concurrently from every domain. *)
let next_id = Atomic.make 0

(* Lock held. *)
let add s i ka kb node size kids =
  s.misses <- s.misses + 1;
  let h = { node; id = Atomic.fetch_and_add next_id 1; size; kids } in
  s.keys.(2 * i) <- ka;
  s.keys.((2 * i) + 1) <- kb;
  s.vals.(i) <- h;
  s.count <- s.count + 1;
  if 2 * s.count > Array.length s.vals then grow s;
  h

(* The interior probes take no closure and build no key: a hit allocates
   nothing.  On a miss, [reuse] says that [t] already is the node to
   canonicalize (its children are the canonical ones), so re-interning a
   tree that came out of the table allocates no node either. *)
let unop_with op (a : h) t reuse =
  let ka = (a.id lsl tag_bits) lor unop_tag op in
  let hash = mix ka 0 in
  let s = shard_of_hash hash in
  Mutex.lock s.lock;
  let i = slot s hash ka 0 in
  let h =
    if Array.unsafe_get s.keys (2 * i) <> 0 then begin
      s.hits <- s.hits + 1;
      Array.unsafe_get s.vals i
    end
    else
      let node = if reuse then t else Tree.Unop (op, a.node) in
      add s i ka 0 node (1 + a.size) [| a |]
  in
  Mutex.unlock s.lock;
  h

let binop_with op (a : h) (b : h) t reuse =
  let ka = (a.id lsl tag_bits) lor binop_tag op and kb = b.id in
  let hash = mix ka kb in
  let s = shard_of_hash hash in
  Mutex.lock s.lock;
  let i = slot s hash ka kb in
  let h =
    if Array.unsafe_get s.keys (2 * i) <> 0 then begin
      s.hits <- s.hits + 1;
      Array.unsafe_get s.vals i
    end
    else
      let node = if reuse then t else Tree.Binop (op, a.node, b.node) in
      add s i ka kb node (1 + a.size + b.size) [| a; b |]
  in
  Mutex.unlock s.lock;
  h

let no_kids = [||]

let leaf key =
  let s = shard_of_hash (mix (Hashtbl.hash key) 0) in
  Mutex.lock s.lock;
  let h =
    match Hashtbl.find_opt s.leaves key with
    | Some h ->
      s.hits <- s.hits + 1;
      h
    | None ->
      s.misses <- s.misses + 1;
      let node =
        match key with K_const k -> Tree.Const k | K_ref r -> Tree.Ref r
      in
      let h =
        { node; id = Atomic.fetch_and_add next_id 1; size = 1; kids = no_kids }
      in
      Hashtbl.replace s.leaves key h;
      h
  in
  Mutex.unlock s.lock;
  h

let const k = leaf (K_const k)
let ref_ r = leaf (K_ref r)
let var name = ref_ (Mref.scalar name)
let unop op a = unop_with op a absent.node false
let binop op a b = binop_with op a b absent.node false

let rec intern (t : Tree.t) =
  match t with
  | Tree.Const k -> const k
  | Tree.Ref r -> ref_ r
  | Tree.Unop (op, a) ->
    let ha = intern a in
    unop_with op ha t (ha.node == a)
  | Tree.Binop (op, a, b) ->
    let ha = intern a in
    let hb = intern b in
    binop_with op ha hb t (ha.node == a && hb.node == b)

let node h = h.node
let id h = h.id

type stats = { live : int; hits : int; misses : int }

let stats () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let r =
        {
          live = acc.live + s.count + Hashtbl.length s.leaves;
          hits = acc.hits + s.hits;
          misses = acc.misses + s.misses;
        }
      in
      Mutex.unlock s.lock;
      r)
    { live = 0; hits = 0; misses = 0 }
    shards

(* The longest run of occupied slots, wrapping around the table's end: a
   probe that misses at the run's first slot compares against every key
   of it. *)
let longest_run keys =
  let n = Array.length keys / 2 in
  let occupied i = keys.(2 * (i mod n)) <> 0 in
  (* Start just after an empty slot, so no run is split by the wrap; a
     table is never full. *)
  let start =
    let rec first_empty i = if occupied i then first_empty (i + 1) else i in
    first_empty 0 + 1
  in
  let longest = ref 0 and run = ref 0 in
  for i = start to start + n - 1 do
    if occupied i then begin
      incr run;
      if !run > !longest then longest := !run
    end
    else run := 0
  done;
  !longest

let max_chain () =
  Array.fold_left
    (fun acc s ->
      Mutex.lock s.lock;
      let longest = longest_run s.keys in
      Mutex.unlock s.lock;
      max acc longest)
    0 shards

let clear () =
  Array.iter
    (fun s ->
      Mutex.lock s.lock;
      let keys, vals = fresh_interior () in
      s.keys <- keys;
      s.vals <- vals;
      s.count <- 0;
      Hashtbl.reset s.leaves;
      s.hits <- 0;
      s.misses <- 0;
      Mutex.unlock s.lock)
    shards
