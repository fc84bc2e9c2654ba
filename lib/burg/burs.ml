(* Table-driven BURS automaton.

   At [create] the grammar's multi-level patterns are normalized into
   one-level rules over fresh fragment nonterminals and bucketed by root
   operator; no state exists yet.  Labelling is one bottom-up pass that
   computes, per hash-cons id, a packed [(base lsl sid_bits) lor sid]
   slot stored in a lock-free {!Ir.Idtab}.  States and transitions are
   built on demand: the first node whose transition key is new takes the
   construction lock and builds (or finds, since states are hash-consed
   by item set) its state, so the automaton holds exactly the states the
   labelled trees reach.

   Cost bookkeeping.  For node [n] with child slots [(b_i, s_i)], define
   [C = sum b_i].  Every candidate item's absolute cost at [n] equals its
   {e relative} cost plus [C], where the relative cost of a one-level
   rule is [cost + sum (delta of bound nonterminal in child state)
   - sum (b_i of leaf-bound children)].  Relative costs are therefore a
   function of the transition key alone; the state stores
   [delta = rel - min_rel] per item and the transition stores [min_rel],
   so [base n = C + min_rel] and [abs nt = base n + delta nt].  Two nodes
   in the same state with the same base have identical absolute costs for
   every nonterminal — the variant-pruning invariant.

   Leaf-bound children (a pattern matching [Const_any]/[Const_eq]/
   [Ref_any] directly) contribute nothing to a rule's cost, hence the
   [- b_i] term; to keep relative costs key-determined, a leaf child's
   key component carries its full packed slot (state {e and} base) while
   an interior child — whose base can never feed a relative cost —
   contributes only its state id.

   Guards and dynamic costs are evaluated on the subject node and folded
   into the transition key as a signature (per guarded/dynamic rule in
   bucket order: applicability marker, guard bit, dynamic cost), so
   memoized transitions never merge nodes a guard would tell apart.

   Parity with the DP labeller: items are improved in original rule
   order with the same tie-break (earlier rule wins on equal cost), the
   chain closure iterates the same rule list to the same fixpoint, and
   covers are rebuilt by re-running the original rule's pattern match —
   so both engines return byte-identical derivations. *)

(* Dense operator tags for array-indexed bucket dispatch on the hot path
   (no wildcard: adding an operator must revisit this file). *)
let unop_tag = function Ir.Op.Neg -> 0 | Ir.Op.Not -> 1 | Ir.Op.Sat -> 2
let n_unops = 3

let binop_tag = function
  | Ir.Op.Add -> 0
  | Ir.Op.Sub -> 1
  | Ir.Op.Mul -> 2
  | Ir.Op.And -> 3
  | Ir.Op.Or -> 4
  | Ir.Op.Xor -> 5
  | Ir.Op.Shl -> 6
  | Ir.Op.Shr -> 7

let n_binops = 8
let all_unops = [ Ir.Op.Neg; Ir.Op.Not; Ir.Op.Sat ]

let all_binops =
  [
    Ir.Op.Add; Ir.Op.Sub; Ir.Op.Mul; Ir.Op.And; Ir.Op.Or; Ir.Op.Xor;
    Ir.Op.Shl; Ir.Op.Shr;
  ]

(* Child position of a one-level rule: a (real or fragment) nonterminal
   (interned to a dense id), or a leaf pattern matched in place. *)
type atom = A_nt of int | A_const_any | A_const_eq of int | A_ref

type choice = Ch_rule of Rule.t | Ch_chain of Rule.t * string

(* One-level rule.  [ol_root = Some r] marks the root level of original
   rule [r] — its guard/dyn_cost/cost apply and a win records [r] as the
   cover choice ([ol_choice], allocated once).  [ol_root = None] is an
   internal fragment: cost 0, unguarded, never exposed. *)
type olrule = {
  ol_lhs : int;  (* interned nonterminal id *)
  ol_const_eq : int option;  (* root pattern [Const_eq k] for leaf shapes *)
  ol_atoms : atom array;
  ol_root : Rule.t option;
  ol_choice : choice option;  (* [Some (Ch_rule r)] iff [ol_root = Some r] *)
  ol_sig : bool;  (* root with a guard or dynamic cost *)
}

(* Chain rule with its endpoints pre-interned and its choice preallocated. *)
type chain = {
  ch_rule : Rule.t;
  ch_src : int;
  ch_lhs : int;
  ch_choice : choice option;
}

(* Per-(shape) rule bucket: all one-level rules in emission order, plus
   just the guard/dyn-bearing subset the signature has to evaluate. *)
type bucket = { b_ols : olrule array; b_sig : olrule array }

let empty_bucket = { b_ols = [||]; b_sig = [||] }

type leaf_info = L_const of int | L_ref

type item = { it_nt : string; it_delta : int; it_choice : choice option }

type state = {
  sid : int;  (* >= 1 so a packed slot is never 0 *)
  leaf : leaf_info option;
  items : item array;  (* sorted by nonterminal *)
  find : (string, item) Hashtbl.t;  (* immutable after construction *)
  by_id : item option array;  (* indexed by interned nonterminal id *)
}

(* Transition key: node shape (0 for a constant, whose value is [k_a];
   1 for a reference; then the unary and binary operator tags), child
   components and guard/dyn signature.  Hashed and compared as ints, with
   no polymorphic hash or compare — a hash collision chains, it never
   merges distinct keys. *)
type nkey = { k_shape : int; k_a : int; k_b : int; k_sig : int list }

let shape_unop op = 2 + unop_tag op
let shape_binop op = 2 + n_unops + binop_tag op

module Ktbl = Hashtbl.Make (struct
  type t = nkey

  let equal x y =
    x.k_shape = y.k_shape && x.k_a = y.k_a && x.k_b = y.k_b
    && List.equal Int.equal x.k_sig y.k_sig

  let step h x = (h * 0x2545F4914F6CDD1D) + x

  let hash k =
    let h = List.fold_left step (step (step k.k_shape k.k_a) k.k_b) k.k_sig in
    let h = h * 0x1D8E4E27C47D124F in
    (h lxor (h lsr 29)) land max_int
end)

type trans = { tr_state : state; tr_rel : int }

let sid_bits = 20
let sid_mask = (1 lsl sid_bits) - 1

type t = {
  grammar : Grammar.t;
  nt_count : int;  (* interned nonterminals (real + fragment) *)
  nt_ids : (string, int) Hashtbl.t;
  nt_names : string array;
  (* One-level rules bucketed by root shape, dispatched by dense operator
     tag so the hot path never hashes a shape. *)
  b_const : bucket;
  b_ref : bucket;
  b_unops : bucket array;  (* indexed by [unop_tag] *)
  b_binops : bucket array;  (* indexed by [binop_tag] *)
  chains : chain list;  (* original order *)
  sig_chains : Rule.t list;  (* guarded/dynamic chain rules, in order *)
  lock : Mutex.t;
  (* Guarded by [lock]: *)
  transitions : trans Ktbl.t;
  states_by_key : (string, state) Hashtbl.t;
  mutable nstates : int;
  mutable build_ms : float;
  (* Copy-on-append snapshot of all states, index [sid - 1]; readers take
     it with one atomic load and never see a partially built array. *)
  states : state array Atomic.t;
  slots : int Ir.Idtab.t;
  nodes_labelled : int Atomic.t;
  memo_hits : int Atomic.t;
}

let grammar a = a.grammar
let state_count a = a.nstates
let transition_count a = Ktbl.length a.transitions
let build_ms a = a.build_ms
let nodes_labelled a = Atomic.get a.nodes_labelled
let memo_hits a = Atomic.get a.memo_hits
let now_ms () = Unix.gettimeofday () *. 1000.

(* ------------------------------------------------------------------ *)
(* Normalization: multi-level patterns -> one-level rules.             *)

let frag_prefix = "#frag:"

let decompose ~intern_nt base_rules =
  let out = ref [] in
  let emit shape ol = out := (shape, ol) :: !out in
  let shape_of_root p =
    match Pattern.root_shape p with
    | Some s -> s
    | None -> assert false (* chain rules are partitioned out *)
  in
  let rec atom_of (r : Rule.t) path p =
    match p with
    | Pattern.Nonterm nt -> A_nt (intern_nt nt)
    | Pattern.Const_any -> A_const_any
    | Pattern.Const_eq k -> A_const_eq k
    | Pattern.Ref_any -> A_ref
    | Pattern.Unop _ | Pattern.Binop _ ->
      let fnt = frag_prefix ^ r.Rule.name ^ "/" ^ path in
      level r ~lhs:fnt ~root:None path p;
      A_nt (intern_nt fnt)
  and level (r : Rule.t) ~lhs ~root path p =
    let const_eq, atoms =
      match p with
      | Pattern.Const_eq k -> (Some k, [||])
      | Pattern.Const_any | Pattern.Ref_any -> (None, [||])
      | Pattern.Unop (_, pa) -> (None, [| atom_of r (path ^ "0") pa |])
      | Pattern.Binop (_, pa, pb) ->
        let a = atom_of r (path ^ "0") pa in
        let b = atom_of r (path ^ "1") pb in
        (None, [| a; b |])
      | Pattern.Nonterm _ -> assert false
    in
    let ol_sig =
      match root with
      | Some (rr : Rule.t) -> rr.guard <> None || rr.dyn_cost <> None
      | None -> false
    in
    emit (shape_of_root p)
      { ol_lhs = intern_nt lhs; ol_const_eq = const_eq; ol_atoms = atoms;
        ol_root = root;
        ol_choice = (match root with Some r -> Some (Ch_rule r) | None -> None);
        ol_sig }
  in
  List.iter
    (fun (r : Rule.t) -> level r ~lhs:r.Rule.lhs ~root:(Some r) "" r.Rule.pattern)
    base_rules;
  List.rev !out

let bucket_of_list ols =
  {
    b_ols = Array.of_list ols;
    b_sig = Array.of_list (List.filter (fun ol -> ol.ol_sig) ols);
  }

(* ------------------------------------------------------------------ *)
(* Item-set construction (the per-transition slow path).               *)

let atom_ok a (kid : state) =
  match a with
  | A_nt id -> (match kid.by_id.(id) with Some _ -> true | None -> false)
  | A_const_any -> (match kid.leaf with Some (L_const _) -> true | _ -> false)
  | A_const_eq k -> (match kid.leaf with Some (L_const k') -> k = k' | _ -> false)
  | A_ref -> kid.leaf = Some L_ref

let applicable ol (node : Ir.Tree.t) (kid_states : state array) =
  (match (ol.ol_const_eq, node) with
  | Some k, Ir.Tree.Const k' -> k = k'
  | Some _, _ -> false
  | None, _ -> true)
  &&
  let atoms = ol.ol_atoms in
  let n = Array.length atoms in
  let rec go i =
    i >= n
    || (atom_ok (Array.unsafe_get atoms i) (Array.unsafe_get kid_states i)
       && go (i + 1))
  in
  go 0

(* Guard/dyn outcomes that can influence the item set, in a fixed order:
   they are part of the transition key, so memoized transitions are only
   shared between nodes where every guard agrees.  Allocation-light: the
   common case (no guarded/dynamic rules on this shape) returns []. *)
let signature a bucket (h : Ir.Hashcons.h) kid_states =
  let sig_ols = bucket.b_sig in
  let n = Array.length sig_ols in
  if n = 0 && a.sig_chains == [] then []
  else begin
    let node = h.Ir.Hashcons.node in
    let rec chains = function
      | [] -> []
      | (r : Rule.t) :: rest ->
        let g = match r.guard with None -> true | Some g -> g node in
        (if g then 1 else 0)
        :: (if g && r.dyn_cost <> None then Rule.cost_at r node else 0)
        :: chains rest
    in
    let rec ols i =
      if i >= n then chains a.sig_chains
      else
        let ol = Array.unsafe_get sig_ols i in
        if not (applicable ol node kid_states) then -1 :: 0 :: ols (i + 1)
        else
          let r = match ol.ol_root with Some r -> r | None -> assert false in
          let g = match r.Rule.guard with None -> true | Some g -> g node in
          (if g then 1 else 0)
          :: (if g && r.Rule.dyn_cost <> None then Rule.cost_at r node else 0)
          :: ols (i + 1)
    in
    ols 0
  end

(* Best relative cost and winning choice per nonterminal, DP order: base
   rules in original order (earlier wins ties), then chain closure to
   fixpoint over the original chain list.  Returns dense per-nonterminal
   arrays ([max_int] = underivable). *)
let compute_items a bucket (h : Ir.Hashcons.h) kid_states kid_bases =
  let node = h.Ir.Hashcons.node in
  let rel = Array.make a.nt_count max_int in
  let ch = Array.make a.nt_count None in
  let improve id r c =
    if r < rel.(id) then begin
      rel.(id) <- r;
      ch.(id) <- c;
      true
    end
    else false
  in
  let rel_of ol c0 =
    let acc = ref c0 in
    Array.iteri
      (fun i atom ->
        match atom with
        | A_nt id -> (
          match kid_states.(i).by_id.(id) with
          | Some it -> acc := !acc + it.it_delta
          | None -> assert false (* [applicable] checked membership *))
        | A_const_any | A_const_eq _ | A_ref -> acc := !acc - kid_bases.(i))
      ol.ol_atoms;
    !acc
  in
  Array.iter
    (fun ol ->
      if applicable ol node kid_states then
        match ol.ol_root with
        | Some r ->
          let g = match r.Rule.guard with None -> true | Some g -> g node in
          if g then
            ignore
              (improve ol.ol_lhs (rel_of ol (Rule.cost_at r node)) ol.ol_choice)
        | None -> ignore (improve ol.ol_lhs (rel_of ol 0) None))
    bucket.b_ols;
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun c ->
        let srel = rel.(c.ch_src) in
        if srel < max_int then begin
          let r = c.ch_rule in
          let g = match r.Rule.guard with None -> true | Some g -> g node in
          if g && improve c.ch_lhs (srel + Rule.cost_at r node) c.ch_choice then
            changed := true
        end)
      a.chains
  done;
  (rel, ch)

(* Hash-cons a state from a finished item set.  Lock held. *)
let intern_state a ~leaf (rel : int array) (ch : choice option array) =
  let items = ref [] in
  for id = a.nt_count - 1 downto 0 do
    if rel.(id) < max_int then
      items := (a.nt_names.(id), rel.(id), ch.(id)) :: !items
  done;
  let items =
    List.sort (fun (x, _, _) (y, _, _) -> String.compare x y) !items
  in
  let min_rel =
    match items with
    | [] -> 0
    | _ -> List.fold_left (fun m (_, rel, _) -> min m rel) max_int items
  in
  let buf = Buffer.create 64 in
  (match leaf with
  | None -> Buffer.add_char buf '.'
  | Some (L_const k) ->
    Buffer.add_char buf 'c';
    Buffer.add_string buf (string_of_int k)
  | Some L_ref -> Buffer.add_char buf 'r');
  List.iter
    (fun (nt, rel, ch) ->
      Buffer.add_char buf '|';
      Buffer.add_string buf nt;
      Buffer.add_char buf '=';
      Buffer.add_string buf (string_of_int (rel - min_rel));
      Buffer.add_char buf '=';
      match ch with
      | None -> Buffer.add_char buf '.'
      | Some (Ch_rule r) ->
        Buffer.add_char buf 'R';
        Buffer.add_string buf r.Rule.name
      | Some (Ch_chain (r, _)) ->
        Buffer.add_char buf 'C';
        Buffer.add_string buf r.Rule.name)
    items;
  let key = Buffer.contents buf in
  match Hashtbl.find_opt a.states_by_key key with
  | Some st -> (st, min_rel)
  | None ->
    let sid = a.nstates + 1 in
    if sid > sid_mask then failwith "Burs: state table overflow";
    let items_arr =
      Array.of_list
        (List.map
           (fun (nt, rel, ch) ->
             { it_nt = nt; it_delta = rel - min_rel; it_choice = ch })
           items)
    in
    let find = Hashtbl.create (max 8 (Array.length items_arr)) in
    Array.iter (fun it -> Hashtbl.replace find it.it_nt it) items_arr;
    let by_id = Array.make a.nt_count None in
    Array.iter
      (fun it -> by_id.(Hashtbl.find a.nt_ids it.it_nt) <- Some it)
      items_arr;
    let st = { sid; leaf; items = items_arr; find; by_id } in
    let arr = Atomic.get a.states in
    let arr' = Array.make sid st in
    Array.blit arr 0 arr' 0 (sid - 1);
    Atomic.set a.states arr';
    a.nstates <- sid;
    Hashtbl.replace a.states_by_key key st;
    (st, min_rel)

(* A sid read from a slot or transition was published by a writer holding
   the lock after it published the grown snapshot; if our snapshot is
   older, synchronizing on the lock makes the current one visible. *)
let rec state_of a sid =
  let arr = Atomic.get a.states in
  if sid >= 1 && sid <= Array.length arr then Array.unsafe_get arr (sid - 1)
  else begin
    Mutex.lock a.lock;
    Mutex.unlock a.lock;
    state_of a sid
  end

(* ------------------------------------------------------------------ *)
(* Labelling: the hot path.                                            *)

let rec slot_of a (h : Ir.Hashcons.h) =
  let s = Ir.Idtab.get a.slots h.Ir.Hashcons.id in
  if s <> 0 then begin
    Atomic.incr a.memo_hits;
    s
  end
  else begin
    let s = compute_slot a h in
    Ir.Idtab.set a.slots h.Ir.Hashcons.id s;
    Atomic.incr a.nodes_labelled;
    s
  end

and compute_slot a (h : Ir.Hashcons.h) =
  let kid_slots = Array.map (slot_of a) h.Ir.Hashcons.kids in
  let kid_states = Array.map (fun s -> state_of a (s land sid_mask)) kid_slots in
  let kid_bases = Array.map (fun s -> s lsr sid_bits) kid_slots in
  let comp i =
    (* Leaf children keep their base in the key (it feeds relative
       costs); interior children only their state.  Tag the two spaces
       apart. *)
    let st = kid_states.(i) in
    if st.leaf <> None then (kid_slots.(i) lsl 1) lor 1 else st.sid lsl 1
  in
  let bucket =
    match h.Ir.Hashcons.node with
    | Ir.Tree.Const _ -> a.b_const
    | Ir.Tree.Ref _ -> a.b_ref
    | Ir.Tree.Unop (op, _) -> a.b_unops.(unop_tag op)
    | Ir.Tree.Binop (op, _, _) -> a.b_binops.(binop_tag op)
  in
  let key =
    match h.Ir.Hashcons.node with
    | Ir.Tree.Const k -> { k_shape = 0; k_a = k; k_b = 0; k_sig = [] }
    | Ir.Tree.Ref _ ->
      { k_shape = 1; k_a = 0; k_b = 0; k_sig = signature a bucket h [||] }
    | Ir.Tree.Unop (op, _) ->
      {
        k_shape = shape_unop op;
        k_a = comp 0;
        k_b = 0;
        k_sig = signature a bucket h kid_states;
      }
    | Ir.Tree.Binop (op, _, _) ->
      {
        k_shape = shape_binop op;
        k_a = comp 0;
        k_b = comp 1;
        k_sig = signature a bucket h kid_states;
      }
  in
  Mutex.lock a.lock;
  let tr =
    match Ktbl.find_opt a.transitions key with
    | Some tr -> tr
    | None ->
      let t0 = now_ms () in
      let rel, ch = compute_items a bucket h kid_states kid_bases in
      let leaf =
        match h.Ir.Hashcons.node with
        | Ir.Tree.Const k -> Some (L_const k)
        | Ir.Tree.Ref _ -> Some L_ref
        | Ir.Tree.Unop _ | Ir.Tree.Binop _ -> None
      in
      let st, min_rel = intern_state a ~leaf rel ch in
      let tr = { tr_state = st; tr_rel = min_rel } in
      Ktbl.replace a.transitions key tr;
      a.build_ms <- a.build_ms +. (now_ms () -. t0);
      tr
  in
  Mutex.unlock a.lock;
  let base =
    Array.fold_left (fun acc s -> acc + (s lsr sid_bits)) tr.tr_rel kid_slots
  in
  if base < 0 then
    invalid_arg "Burs: dyn_cost drove a derivation cost negative";
  (base lsl sid_bits) lor tr.tr_state.sid

let state_key a h = slot_of a h

let label a h =
  let slot = slot_of a h in
  let st = state_of a (slot land sid_mask) in
  let base = slot lsr sid_bits in
  Array.to_list st.items
  |> List.filter_map (fun it ->
         match it.it_choice with
         | None -> None (* internal fragment *)
         | Some _ -> Some (it.it_nt, base + it.it_delta))

let best_cost ?nt a h =
  let nt = Option.value ~default:a.grammar.Grammar.start nt in
  let slot = slot_of a h in
  let st = state_of a (slot land sid_mask) in
  match Hashtbl.find_opt st.find nt with
  | Some { it_choice = Some _; it_delta; _ } ->
    Some ((slot lsr sid_bits) + it_delta)
  | Some { it_choice = None; _ } | None -> None

let rec cover_of a (h : Ir.Hashcons.h) nt : Cover.t =
  let slot = slot_of a h in
  let st = state_of a (slot land sid_mask) in
  match Hashtbl.find_opt st.find nt with
  | None | Some { it_choice = None; _ } ->
    invalid_arg ("Burs: no derivation of " ^ nt)
  | Some { it_choice = Some (Ch_rule r); _ } -> (
    (* Rebuilt from the original (possibly multi-level) rule of the
       winning item, so the cover matches the DP labeller's exactly. *)
    match Pattern.bindings r.Rule.pattern h with
    | None -> assert false (* the item proves the structural match *)
    | Some bindings ->
      let children = List.map (fun (nt', h') -> cover_of a h' nt') bindings in
      { Cover.rule = r; node = h.Ir.Hashcons.node; children })
  | Some { it_choice = Some (Ch_chain (r, src)); _ } ->
    { Cover.rule = r; node = h.Ir.Hashcons.node; children = [ cover_of a h src ] }

let best_cover ?nt a h =
  let nt = Option.value ~default:a.grammar.Grammar.start nt in
  let slot = slot_of a h in
  let st = state_of a (slot land sid_mask) in
  match Hashtbl.find_opt st.find nt with
  | Some { it_choice = Some _; _ } -> Some (cover_of a h nt)
  | Some { it_choice = None; _ } | None -> None

let create (g : Grammar.t) =
  List.iter
    (fun (r : Rule.t) ->
      let check nt =
        if String.length nt >= String.length frag_prefix
           && String.sub nt 0 (String.length frag_prefix) = frag_prefix
        then
          invalid_arg
            ("Burs: nonterminal collides with internal namespace: " ^ nt)
      in
      check r.lhs;
      List.iter check (Pattern.nonterms r.pattern))
    g.Grammar.rules;
  let base_rules, chain_rules =
    List.partition (fun r -> not (Rule.is_chain r)) g.Grammar.rules
  in
  let sig_chains =
    List.filter
      (fun (r : Rule.t) -> r.guard <> None || r.dyn_cost <> None)
      chain_rules
  in
  let nt_ids = Hashtbl.create 32 in
  let rev_names = ref [] in
  let intern_nt s =
    match Hashtbl.find_opt nt_ids s with
    | Some i -> i
    | None ->
      let i = Hashtbl.length nt_ids in
      Hashtbl.add nt_ids s i;
      rev_names := s :: !rev_names;
      i
  in
  ignore (intern_nt g.Grammar.start);
  let ols = decompose ~intern_nt base_rules in
  let chains =
    List.map
      (fun (r : Rule.t) ->
        match r.pattern with
        | Pattern.Nonterm src ->
          {
            ch_rule = r;
            ch_src = intern_nt src;
            ch_lhs = intern_nt r.lhs;
            ch_choice = Some (Ch_chain (r, src));
          }
        | Pattern.Const_any | Pattern.Const_eq _ | Pattern.Ref_any
        | Pattern.Unop _ | Pattern.Binop _ ->
          assert false (* [Rule.is_chain] selected these *))
      chain_rules
  in
  let by_shape shape =
    bucket_of_list
      (List.filter_map (fun (s, ol) -> if s = shape then Some ol else None) ols)
  in
  let b_unops = Array.make n_unops empty_bucket in
  List.iter
    (fun op -> b_unops.(unop_tag op) <- by_shape (Pattern.S_unop op))
    all_unops;
  let b_binops = Array.make n_binops empty_bucket in
  List.iter
    (fun op -> b_binops.(binop_tag op) <- by_shape (Pattern.S_binop op))
    all_binops;
  {
    grammar = g;
    nt_count = Hashtbl.length nt_ids;
    nt_ids;
    nt_names = Array.of_list (List.rev !rev_names);
    b_const = by_shape Pattern.S_const;
    b_ref = by_shape Pattern.S_ref;
    b_unops;
    b_binops;
    chains;
    sig_chains;
    lock = Mutex.create ();
    transitions = Ktbl.create 256;
    states_by_key = Hashtbl.create 64;
    nstates = 0;
    build_ms = 0.;
    states = Atomic.make [||];
    slots = Ir.Idtab.create 0;
    nodes_labelled = Atomic.make 0;
    memo_hits = Atomic.make 0;
  }
