type rule = Commute | Assoc | Mul_to_shift | Fold

let default_rules = [ Commute; Assoc; Mul_to_shift ]

let is_pow2 k = k > 0 && k land (k - 1) = 0

let log2 k =
  let rec go n k = if k <= 1 then n else go (n + 1) (k lsr 1) in
  go 0 k

(* A rule set as a bit mask of the rules that apply: [root_rewrites]
   tests it, and it is the rules part of a search's key. *)
let bit = function Commute -> 1 | Assoc -> 2 | Mul_to_shift -> 4 | Fold -> 8
let ruleset rules = List.fold_left (fun m r -> m lor bit r) 0 rules
let has rs r = rs land bit r <> 0

(* Rewrites applicable at the root of a handle, consed onto [tail] (later
   rules first).  Shapes are matched on the canonical node; results are
   rebuilt from child handles with the O(1) smart constructors, so every
   variant shares the canonical nodes of its unchanged subtrees — which is
   what lets the matcher's id-keyed DP table label common subtrees once
   across the whole variant space. *)
let root_rewrites rs (h : Hashcons.h) tail =
  let open Hashcons in
  let acc = tail in
  let acc =
    if not (has rs Commute) then acc
    else
      match h.node with
      | Tree.Binop (op, _, _) when Op.commutative op ->
        binop op h.kids.(1) h.kids.(0) :: acc
      | _ -> acc
  in
  let acc =
    if not (has rs Assoc) then acc
    else
      match h.node with
      | Tree.Binop (op, Tree.Binop (op', _, _), _)
        when op = op' && Op.associative op ->
        let l = h.kids.(0) in
        binop op l.kids.(0) (binop op l.kids.(1) h.kids.(1)) :: acc
      | Tree.Binop (op, _, Tree.Binop (op', _, _))
        when op = op' && Op.associative op ->
        let r = h.kids.(1) in
        binop op (binop op h.kids.(0) r.kids.(0)) r.kids.(1) :: acc
      | _ -> acc
  in
  let acc =
    if not (has rs Mul_to_shift) then acc
    else
      match h.node with
      | Tree.Binop (Op.Mul, _, Tree.Const k) when is_pow2 k ->
        binop Op.Shl h.kids.(0) (const (log2 k)) :: acc
      | Tree.Binop (Op.Mul, Tree.Const k, _) when is_pow2 k ->
        binop Op.Shl h.kids.(1) (const (log2 k)) :: acc
      | Tree.Binop (Op.Shl, _, Tree.Const k) when k >= 0 && k < 15 ->
        binop Op.Mul h.kids.(0) (const (1 lsl k)) :: acc
      | _ -> acc
  in
  if not (has rs Fold) then acc
  else
    match h.node with
    | Tree.Binop (op, Tree.Const a, Tree.Const b) ->
      const (Op.eval_binop op a b) :: acc
    | Tree.Binop (Op.Add, _, Tree.Const 0)
    | Tree.Binop (Op.Mul, _, Tree.Const 1)
    | Tree.Binop (Op.Sub, _, Tree.Const 0) ->
      h.kids.(0) :: acc
    | Tree.Binop (Op.Add, Tree.Const 0, _) | Tree.Binop (Op.Mul, Tree.Const 1, _)
      ->
      h.kids.(1) :: acc
    | Tree.Binop (Op.Mul, _, Tree.Const 0) | Tree.Binop (Op.Mul, Tree.Const 0, _)
      ->
      const 0 :: acc
    | Tree.Unop (Op.Neg, Tree.Unop (Op.Neg, _)) -> h.kids.(0).kids.(0) :: acc
    | Tree.Unop (Op.Neg, Tree.Const k) -> const (-k) :: acc
    | _ -> acc

(* [f] of each element in order, consed onto [tail]: the spine rebuilt
   above each rewrite of an operand, in one pass and one list. *)
let rec map_onto f l tail =
  match l with
  | [] -> tail
  | x :: rest ->
    let y = f x in
    y :: map_onto f rest tail

(* Open addressing over int keys with linear probing, doubling at half
   full; [min_int] marks an empty slot.  A search builds three tables on
   it: two [Iset]s, which hold any ints and track [min_int] apart, and
   its [Memo], keyed by hash-cons ids, which are never [min_int]. *)
let home k mask =
  let h = k * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land mask

(* The slot holding [k], or the empty slot where it belongs. *)
let rec find keys mask k i =
  let x = Array.unsafe_get keys i in
  if x = k || x = min_int then i else find keys mask k ((i + 1) land mask)

module Iset = struct
  type t = { mutable keys : int array; mutable count : int; mutable min : bool }

  let create () = { keys = Array.make 64 min_int; count = 0; min = false }

  let mem t k =
    if k = min_int then t.min
    else
      let mask = Array.length t.keys - 1 in
      Array.unsafe_get t.keys (find t.keys mask k (home k mask)) = k

  let rec add t k =
    if k = min_int then t.min <- true
    else if 2 * (t.count + 1) > Array.length t.keys then begin
      let old = t.keys in
      t.keys <- Array.make (2 * Array.length old) min_int;
      t.count <- 0;
      Array.iter (fun x -> if x <> min_int then add t x) old;
      add t k
    end
    else
      let mask = Array.length t.keys - 1 in
      let i = find t.keys mask k (home k mask) in
      if Array.unsafe_get t.keys i <> k then begin
        Array.unsafe_set t.keys i k;
        t.count <- t.count + 1
      end
end

(* One search's rewrite lists, by the id of the subtree they rewrite. *)
module Memo = struct
  type t = {
    mutable keys : int array;
    mutable lists : Hashcons.h list array;
    mutable count : int;
  }

  let create () =
    { keys = Array.make 64 min_int; lists = Array.make 64 []; count = 0 }

  (* The slot holding [id], or -1. *)
  let slot t id =
    let mask = Array.length t.keys - 1 in
    let i = find t.keys mask id (home id mask) in
    if Array.unsafe_get t.keys i = id then i else -1

  let get t i = Array.unsafe_get t.lists i

  (* [id] must be absent. *)
  let rec add t id l =
    if 2 * (t.count + 1) > Array.length t.keys then begin
      let keys = t.keys and lists = t.lists in
      t.keys <- Array.make (2 * Array.length keys) min_int;
      t.lists <- Array.make (2 * Array.length keys) [];
      t.count <- 0;
      Array.iteri (fun i k -> if k <> min_int then add t k lists.(i)) keys;
      add t id l
    end
    else begin
      let mask = Array.length t.keys - 1 in
      let i = find t.keys mask id (home id mask) in
      Array.unsafe_set t.keys i id;
      Array.unsafe_set t.lists i l;
      t.count <- t.count + 1
    end
end

(* One-step rewrites anywhere in the tree, in pre-order (root first, then
   the left subtree's positions, then the right's).  The lists of the
   operands come from [rw], and the spine above each rewrite of an operand
   is rebuilt with O(1) handle constructors.  The right operand's
   rewrites are interned before the left's, and both before the root's. *)
let rec rewrites rs memo (h : Hashcons.h) =
  let below =
    match h.node with
    | Tree.Const _ | Tree.Ref _ -> []
    | Tree.Unop (op, _) ->
      map_onto (fun a' -> Hashcons.unop op a') (rw rs memo h.kids.(0)) []
    | Tree.Binop (op, _, _) ->
      let a = h.kids.(0) and b = h.kids.(1) in
      let right =
        map_onto (fun b' -> Hashcons.binop op a b') (rw rs memo b) []
      in
      map_onto (fun a' -> Hashcons.binop op a' b) (rw rs memo a) right
  in
  (* Polled on the way back up: the spines above the operands' rewrites,
     just built, are where a deep tree's work lies. *)
  Deadline.check ();
  root_rewrites rs h below

(* [rewrites] of a subtree, memoized in the search's [memo]: variants
   share most of their subtrees, so each distinct subtree's list is built
   once per search.  A leaf has none. *)
and rw rs memo (h : Hashcons.h) =
  match h.node with
  | Tree.Const _ | Tree.Ref _ -> []
  | Tree.Unop _ | Tree.Binop _ ->
    let i = Memo.slot memo h.id in
    if i >= 0 then Memo.get memo i
    else begin
      let l = rewrites rs memo h in
      Memo.add memo h.id l;
      l
    end

type counters = {
  mutable explored : int;
  mutable pruned : int;
  mutable dedup_hits : int;
  mutable state_prunes : int;
}

let fresh_counters () =
  { explored = 0; pruned = 0; dedup_hits = 0; state_prunes = 0 }

(* A finished search: the variants it admitted in BFS order (the tree
   itself first) and its counts.  [explored] is [found]'s length. *)
type search = {
  found : Hashcons.h list;
  explored : int;
  pruned : int;
  dedup_hits : int;
}

(* The breadth-first closure of [rewrites] from [h], deduplicated on
   hash-cons ids (candidates are canonical, so membership is one O(1) int
   probe) and capped at [limit] variants.  The memo lives as long as the
   call, so the lists it holds are garbage once the search returns or
   raises; a popped variant's own list is not memoized, as no later pop
   asks for it again. *)
let search rs limit (h : Hashcons.h) =
  let memo = Memo.create () in
  let seen = Iset.create () in
  Iset.add seen h.id;
  let found = ref [ h ] and n = ref 1 in
  let pruned = ref 0 and dedup_hits = ref 0 in
  let queue = Queue.create () in
  Queue.add h queue;
  while (not (Queue.is_empty queue)) && !n < limit do
    let cur = Queue.pop queue in
    Deadline.check ();
    List.iter
      (fun (h' : Hashcons.h) ->
        if Iset.mem seen h'.id then incr dedup_hits
        else if !n >= limit then incr pruned
        else begin
          Iset.add seen h'.id;
          incr n;
          Queue.add h' queue;
          found := h' :: !found
        end)
      (rewrites rs memo cur)
  done;
  {
    found = List.rev !found;
    explored = !n;
    pruned = !pruned;
    dedup_hits = !dedup_hits;
  }

(* Finished searches by (rule set, limit, tree), so a tree searched again
   (the same program compiled for another machine, a re-run sweep, a tree
   a DAG run meets twice) skips its BFS.  Each domain keeps its own table,
   unsynchronized: a domain runs one job at a time.  The table holds the
   last [max_searches] searches the domain stored, each at most [limit]
   variants long (DESIGN.md decision 26). *)
let max_searches = 256

module Key = struct
  type t = { rules : int; limit : int; root : int }

  let equal a b = a.root = b.root && a.limit = b.limit && a.rules = b.rules

  let hash k =
    let x = (((k.root * 31) + k.limit) lsl 4) lor k.rules in
    let h = x * 0x2545F4914F6CDD1D in
    h lxor (h lsr 29)
end

module Searches = Hashtbl.Make (Key)

(* The searches and their keys, oldest first. *)
type table = { searches : search Searches.t; order : Key.t Queue.t }

let table_key : table Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      { searches = Searches.create 64; order = Queue.create () })

let searches_held () = Searches.length (Domain.DLS.get table_key).searches

(* Stored only once complete: a search stopped by the deadline raises out
   of [search] and leaves nothing behind. *)
let remember t key s =
  if Queue.length t.order >= max_searches then
    Searches.remove t.searches (Queue.pop t.order);
  Searches.add t.searches key s;
  Queue.add key t.order

(* [found] without each variant whose prune key an earlier variant had,
   counting it in [c.state_prunes]. *)
let prune f c found =
  let keys = Iset.create () in
  List.filter
    (fun h ->
      match f h with
      | None -> true
      | Some k ->
        if Iset.mem keys k then begin
          c.state_prunes <- c.state_prunes + 1;
          false
        end
        else begin
          Iset.add keys k;
          true
        end)
    found

let hvariants ?(rules = default_rules) ?(limit = 64) ?counters ?prune_key
    (h : Hashcons.h) =
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let rs = ruleset rules in
  let key = { Key.rules = rs; limit; root = h.id } in
  let t = Domain.DLS.get table_key in
  let s =
    match Searches.find_opt t.searches key with
    | Some s -> s
    | None ->
      let s = search rs limit h in
      remember t key s;
      s
  in
  c.explored <- c.explored + s.explored;
  c.pruned <- c.pruned + s.pruned;
  c.dedup_hits <- c.dedup_hits + s.dedup_hits;
  (* State-equivalence pruning: a variant whose prune key was already
     seen has, by the key's contract, exactly the same cover costs as an
     earlier variant, so it can never win the ranking — drop it from the
     output.  It was explored all the same (it counted against [limit]
     and seeded the BFS frontier), so the survivors are the unpruned
     list's, minus cost duplicates: determinism and the prefix-stability
     property are preserved, and one stored search serves every key. *)
  match prune_key with None -> s.found | Some f -> prune f c s.found

let variants ?rules ?limit ?counters ?prune_key t =
  List.map Hashcons.node
    (hvariants ?rules ?limit ?counters ?prune_key (Hashcons.intern t))

(* Semantic-equality spot check: evaluate both trees under a battery of
   assignments to their references. A disagreement proves inequivalence; for
   the linear/bitwise operator set, agreement on this battery is a very strong
   signal and suffices for tests. *)
let equivalent ?(width = 16) a b =
  let refs =
    Array.of_list (List.sort_uniq Mref.compare (Tree.refs a @ Tree.refs b))
  in
  let nrefs = Array.length refs in
  (* Position of a reference in the sorted [refs] array. *)
  let index_of r =
    let rec go lo hi =
      let mid = (lo + hi) / 2 in
      let c = Mref.compare r refs.(mid) in
      if c = 0 then mid else if c < 0 then go lo (mid - 1) else go (mid + 1) hi
    in
    go 0 (nrefs - 1)
  in
  (* Compile each tree once: references resolve to positions in the shared
     environment array up front, so a trial is array reads only (the
     previous version paid a [List.assoc] per reference per trial). *)
  let rec compile = function
    | Tree.Const k -> fun _ -> k
    | Tree.Ref r ->
      let i = index_of r in
      fun env -> env.(i)
    | Tree.Unop (op, x) ->
      let fx = compile x in
      fun env -> Op.eval_unop op ~width (fx env)
    | Tree.Binop (op, x, y) ->
      let fx = compile x and fy = compile y in
      fun env -> Op.eval_binop op (fx env) (fy env)
  in
  let fa = compile a and fb = compile b in
  let samples = [| 0; 1; -1; 2; 3; 5; 7; -8; 100; -100; 255; 1023; -32768 |] in
  let env = Array.make nrefs 0 in
  let trials = 40 in
  (* Short-circuit on the first disagreeing trial. *)
  let rec run trial =
    trial >= trials
    || begin
         for i = 0 to nrefs - 1 do
           env.(i) <-
             samples.(((trial * 31) + (i * 7) + 13) mod Array.length samples)
         done;
         fa env = fb env && run (trial + 1)
       end
  in
  run 0
