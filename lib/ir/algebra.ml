type rule = Commute | Assoc | Mul_to_shift | Fold

let default_rules = [ Commute; Assoc; Mul_to_shift ]

let is_pow2 k = k > 0 && k land (k - 1) = 0

let log2 k =
  let rec go n k = if k <= 1 then n else go (n + 1) (k lsr 1) in
  go 0 k

(* Rewrites applicable at the root of a handle.  Shapes are matched on the
   canonical node; results are rebuilt from child handles with the O(1)
   smart constructors, so every variant shares the canonical nodes of its
   unchanged subtrees — which is what lets the matcher's id-keyed DP table
   label common subtrees once across the whole variant space. *)
let root_rewrites rules (h : Hashcons.h) =
  let open Hashcons in
  let add rule mk acc = if List.mem rule rules then mk acc else acc in
  let acc = [] in
  let acc =
    add Commute
      (fun acc ->
        match h.node with
        | Tree.Binop (op, _, _) when Op.commutative op ->
          binop op h.kids.(1) h.kids.(0) :: acc
        | _ -> acc)
      acc
  in
  let acc =
    add Assoc
      (fun acc ->
        match h.node with
        | Tree.Binop (op, Tree.Binop (op', _, _), _)
          when op = op' && Op.associative op ->
          let l = h.kids.(0) in
          binop op l.kids.(0) (binop op l.kids.(1) h.kids.(1)) :: acc
        | Tree.Binop (op, _, Tree.Binop (op', _, _))
          when op = op' && Op.associative op ->
          let r = h.kids.(1) in
          binop op (binop op h.kids.(0) r.kids.(0)) r.kids.(1) :: acc
        | _ -> acc)
      acc
  in
  let acc =
    add Mul_to_shift
      (fun acc ->
        match h.node with
        | Tree.Binop (Op.Mul, _, Tree.Const k) when is_pow2 k ->
          binop Op.Shl h.kids.(0) (const (log2 k)) :: acc
        | Tree.Binop (Op.Mul, Tree.Const k, _) when is_pow2 k ->
          binop Op.Shl h.kids.(1) (const (log2 k)) :: acc
        | Tree.Binop (Op.Shl, _, Tree.Const k) when k >= 0 && k < 15 ->
          binop Op.Mul h.kids.(0) (const (1 lsl k)) :: acc
        | _ -> acc)
      acc
  in
  let acc =
    add Fold
      (fun acc ->
        match h.node with
        | Tree.Binop (op, Tree.Const a, Tree.Const b) ->
          const (Op.eval_binop op a b) :: acc
        | Tree.Binop (Op.Add, _, Tree.Const 0)
        | Tree.Binop (Op.Mul, _, Tree.Const 1)
        | Tree.Binop (Op.Sub, _, Tree.Const 0) ->
          h.kids.(0) :: acc
        | Tree.Binop (Op.Add, Tree.Const 0, _)
        | Tree.Binop (Op.Mul, Tree.Const 1, _) ->
          h.kids.(1) :: acc
        | Tree.Binop (Op.Mul, _, Tree.Const 0)
        | Tree.Binop (Op.Mul, Tree.Const 0, _) ->
          const 0 :: acc
        | Tree.Unop (Op.Neg, Tree.Unop (Op.Neg, _)) ->
          h.kids.(0).kids.(0) :: acc
        | Tree.Unop (Op.Neg, Tree.Const k) -> const (-k) :: acc
        | _ -> acc)
      acc
  in
  acc

(* One-step rewrites anywhere in the tree, in pre-order (root first, then
   the left subtree's positions, then the right's).  The list is a pure
   function of the canonical node and the rule set, so it is memoized on
   the hash-cons id, process-wide like the intern table itself: across a
   variant closure (and across compilations) the candidates of a shared
   subtree are computed once and the spine above each rewrite is rebuilt
   with O(1) handle constructors.  Per-node lists are a handful of
   entries, so the appends below are cheap (the pre-handle version paid
   an [@] per interior node of every tree, uncached).

   The memo is domain-local ([Domain.DLS]): each domain of the serve pool
   keeps its own table rather than contending on a shared one.  The cached
   value is a pure function of the canonical node and the rule set, so
   duplicating entries across domains costs memory only, never
   determinism — and the handles inside the lists are the shared canonical
   ones from the striped intern table, so the trees themselves are not
   duplicated. *)
let rw_cache_key :
    (rule list, (int, Hashcons.h list) Hashtbl.t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 4)

let rec rw rules cache (h : Hashcons.h) =
  let open Hashcons in
  match Hashtbl.find_opt cache h.id with
  | Some l -> l
  | None ->
    let below =
      match h.node with
      | Tree.Const _ | Tree.Ref _ -> []
      | Tree.Unop (op, _) ->
        List.map (fun a' -> unop op a') (rw rules cache h.kids.(0))
      | Tree.Binop (op, _, _) ->
        let a = h.kids.(0) and b = h.kids.(1) in
        List.map (fun a' -> binop op a' b) (rw rules cache a)
        @ List.map (fun b' -> binop op a b') (rw rules cache b)
    in
    let l = root_rewrites rules h @ below in
    Hashtbl.replace cache h.id l;
    l

let hrewrites rules (h : Hashcons.h) =
  let rw_cache = Domain.DLS.get rw_cache_key in
  let cache =
    match Hashtbl.find_opt rw_cache rules with
    | Some c -> c
    | None ->
      let c = Hashtbl.create 1024 in
      Hashtbl.replace rw_cache rules c;
      c
  in
  rw rules cache h

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
  (* Dedup on hash-cons ids: candidates coming out of [hrewrites] are
     canonical, so membership is one O(1) int probe. *)
  let seen = Hashtbl.create 64 in
  Hashtbl.replace seen (Hashcons.id h) ();
  c.explored <- c.explored + 1;
  (* State-equivalence pruning: a candidate whose prune key was already
     seen has, by the key's contract, exactly the same cover costs as an
     earlier variant, so it can never win the ranking — drop it from the
     output.  It still counts against [limit] and still seeds the BFS
     frontier, so the set of trees explored (and the survivors) is
     identical to an unpruned run's prefix: determinism and the
     prefix-stability property are preserved. *)
  let keys = Hashtbl.create 16 in
  let key_seen h' =
    match prune_key with
    | None -> false
    | Some f -> (
      match f h' with
      | None -> false
      | Some k ->
        if Hashtbl.mem keys k then true
        else begin
          Hashtbl.replace keys k ();
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
      List.iter
        (fun h' ->
          let key = Hashcons.id h' in
          if Hashtbl.mem seen key then c.dedup_hits <- c.dedup_hits + 1
          else if !n >= limit then c.pruned <- c.pruned + 1
          else begin
            Hashtbl.replace seen key ();
            incr n;
            c.explored <- c.explored + 1;
            Queue.add h' queue;
            if key_seen h' then c.state_prunes <- c.state_prunes + 1
            else out := h' :: !out
          end)
        (hrewrites rules cur);
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
