type rule = Commute | Assoc | Mul_to_shift | Fold

let default_rules = [ Commute; Assoc; Mul_to_shift ]

let is_pow2 k = k > 0 && k land (k - 1) = 0

let log2 k =
  let rec go n k = if k <= 1 then n else go (n + 1) (k lsr 1) in
  go 0 k

(* A rule set: which rules apply, and this domain's rewrite memo for it. *)
type ruleset = {
  rules : rule list;
  commute : bool;
  assoc : bool;
  shift : bool;
  fold : bool;
  memo : Hashcons.h list option Idtab.t;
}

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
    if not rs.commute then acc
    else
      match h.node with
      | Tree.Binop (op, _, _) when Op.commutative op ->
        binop op h.kids.(1) h.kids.(0) :: acc
      | _ -> acc
  in
  let acc =
    if not rs.assoc then acc
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
    if not rs.shift then acc
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
  if not rs.fold then acc
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

(* One-step rewrites anywhere in the tree, in pre-order (root first, then
   the left subtree's positions, then the right's).  The list is a pure
   function of the canonical node and the rule set, so it is memoized on
   the hash-cons id, in an {!Idtab} indexed by it: across a variant
   closure (and across compilations) the candidates of a shared subtree
   are computed once and the spine above each rewrite is rebuilt with
   O(1) handle constructors.  The right operand's rewrites are interned
   before the left's, and both before the root's, so handles are minted
   in the same order as ever.

   The memo is domain-local ([Domain.DLS]): each domain of the serve pool
   keeps its own table rather than contending on a shared one.  The cached
   value is a pure function of the canonical node and the rule set, so
   duplicating entries across domains costs memory only, never
   determinism — and the handles inside the lists are the shared canonical
   ones from the striped intern table, so the trees themselves are not
   duplicated. *)
let rec rw rs (h : Hashcons.h) =
  match Idtab.get rs.memo h.id with
  | Some l -> l
  | None ->
    let below =
      match h.node with
      | Tree.Const _ | Tree.Ref _ -> []
      | Tree.Unop (op, _) ->
        map_onto (fun a' -> Hashcons.unop op a') (rw rs h.kids.(0)) []
      | Tree.Binop (op, _, _) ->
        let a = h.kids.(0) and b = h.kids.(1) in
        let right = map_onto (fun b' -> Hashcons.binop op a b') (rw rs b) [] in
        map_onto (fun a' -> Hashcons.binop op a' b) (rw rs a) right
    in
    (* Polled on the way back up: the spines above the children's
       rewrites, just built, are where a deep tree's work lies. *)
    Deadline.check ();
    let l = root_rewrites rs h below in
    Idtab.set rs.memo h.id (Some l);
    l

let rulesets_key : ruleset list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* This domain's rule set for [rules]: found by physical equality, as
   callers pass one options record's list again and again, else by
   structure. *)
let ruleset rules =
  let sets = Domain.DLS.get rulesets_key in
  match List.find_opt (fun rs -> rs.rules == rules) !sets with
  | Some rs -> rs
  | None -> (
    match List.find_opt (fun rs -> rs.rules = rules) !sets with
    | Some rs -> rs
    | None ->
      let rs =
        {
          rules;
          commute = List.mem Commute rules;
          assoc = List.mem Assoc rules;
          shift = List.mem Mul_to_shift rules;
          fold = List.mem Fold rules;
          memo = Idtab.create None;
        }
      in
      sets := rs :: !sets;
      rs)

(* A set of ints, for the search's per-call membership tests: open
   addressing with linear probing, doubling at half full.  [min_int]
   marks an empty slot and is tracked apart. *)
module Iset = struct
  type t = { mutable keys : int array; mutable count : int; mutable min : bool }

  let create () = { keys = Array.make 64 min_int; count = 0; min = false }

  let home k mask =
    let h = k * 0x2545F4914F6CDD1D in
    (h lxor (h lsr 29)) land mask

  (* The slot holding [k], or the empty slot where it belongs. *)
  let rec find keys mask k i =
    let x = Array.unsafe_get keys i in
    if x = k || x = min_int then i else find keys mask k ((i + 1) land mask)

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

type counters = {
  mutable explored : int;
  mutable pruned : int;
  mutable dedup_hits : int;
  mutable state_prunes : int;
}

let fresh_counters () =
  { explored = 0; pruned = 0; dedup_hits = 0; state_prunes = 0 }

let hvariants ?(rules = default_rules) ?(limit = 64) ?counters ?prune_key
    (h : Hashcons.h) =
  let c = match counters with Some c -> c | None -> fresh_counters () in
  let rs = ruleset rules in
  (* Dedup on hash-cons ids: candidates coming out of [rw] are canonical,
     so membership is one O(1) int probe. *)
  let seen = Iset.create () in
  Iset.add seen (Hashcons.id h);
  c.explored <- c.explored + 1;
  (* State-equivalence pruning: a candidate whose prune key was already
     seen has, by the key's contract, exactly the same cover costs as an
     earlier variant, so it can never win the ranking — drop it from the
     output.  It still counts against [limit] and still seeds the BFS
     frontier, so the set of trees explored (and the survivors) is
     identical to an unpruned run's prefix: determinism and the
     prefix-stability property are preserved. *)
  let keys = Iset.create () in
  let key_seen h' =
    match prune_key with
    | None -> false
    | Some f -> (
      match f h' with
      | None -> false
      | Some k ->
        if Iset.mem keys k then true
        else begin
          Iset.add keys k;
          false
        end)
  in
  ignore (key_seen h);
  let out = ref [ h ] in
  let queue = Queue.create () in
  Queue.add h queue;
  let n = ref 1 in
  let rec drain () =
    if (not (Queue.is_empty queue)) && !n < limit then begin
      let cur = Queue.pop queue in
      Deadline.check ();
      List.iter
        (fun h' ->
          let key = Hashcons.id h' in
          if Iset.mem seen key then c.dedup_hits <- c.dedup_hits + 1
          else if !n >= limit then c.pruned <- c.pruned + 1
          else begin
            Iset.add seen key;
            incr n;
            c.explored <- c.explored + 1;
            Queue.add h' queue;
            if key_seen h' then c.state_prunes <- c.state_prunes + 1
            else out := h' :: !out
          end)
        (rw rs cur);
      drain ()
    end
  in
  drain ();
  List.rev !out

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
