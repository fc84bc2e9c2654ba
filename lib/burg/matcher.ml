(* Two labelling engines behind one matcher API:

   - [Table]: the BURS automaton ({!Burs}), the production engine —
     states and transitions are built on demand, the first time
     labelling needs each; labelling is one bottom-up pass writing a
     packed state slot per hash-cons id into a lock-free flat array.
   - [Dp]: the original bottom-up dynamic programming labeller — an
     id-keyed memo of per-node labellings computed on demand, kept as
     the differential reference.

   Both engines produce byte-identical covers (same costs, same
   tie-breaks, same chain closure); the test suite asserts it on single
   trees, on the Table-1 job matrix and on a fuzz campaign. *)

type engine = Dp | Table

let engine_name = function Dp -> "dp" | Table -> "table"

type counters = { nodes_labelled : int; memo_hits : int }

module Dp_engine = struct
  type entry = { cost : int; cover : Cover.t }

  (* Best derivation per nonterminal at one tree node. *)
  type labelling = (string, entry) Hashtbl.t

  type t = {
    grammar : Grammar.t;
    (* Non-chain rules bucketed by root shape, original order within each
       bucket (ties in [improve] keep the earlier rule, as with a flat
       list), so [compute] walks one bucket instead of the whole rule
       list.  Built once in [create], never mutated after — concurrent
       reads from many domains are safe. *)
    base_by_shape : (Pattern.shape, Rule.t list) Hashtbl.t;
    chain_rules : Rule.t list;
    (* The DP table, keyed by hash-cons id: one entry per distinct subtree
       structure ever labelled, shared across variants, trees and
       compilation jobs.  It and its counters are guarded by [lock].  A
       labelling is built privately by the computing domain and only then
       published under the lock; after publication it is read-only. *)
    lock : Mutex.t;
    table : (int, labelling) Hashtbl.t;
    mutable nodes_labelled : int;
    mutable memo_hits : int;
  }

  let create grammar =
    let base_rules, chain_rules =
      List.partition (fun r -> not (Rule.is_chain r)) grammar.Grammar.rules
    in
    let base_by_shape = Hashtbl.create 16 in
    List.iter
      (fun (r : Rule.t) ->
        match Pattern.root_shape r.pattern with
        | None -> ()
        | Some s ->
          Hashtbl.replace base_by_shape s
            (r :: (try Hashtbl.find base_by_shape s with Not_found -> [])))
      (List.rev base_rules);
    {
      grammar;
      base_by_shape;
      chain_rules;
      lock = Mutex.create ();
      table = Hashtbl.create 64;
      nodes_labelled = 0;
      memo_hits = 0;
    }

  let counters m =
    Mutex.lock m.lock;
    let c = { nodes_labelled = m.nodes_labelled; memo_hits = m.memo_hits } in
    Mutex.unlock m.lock;
    c

  let improve (lab : labelling) nt entry =
    match Hashtbl.find_opt lab nt with
    | Some old when old.cost <= entry.cost -> false
    | Some _ | None ->
      Hashtbl.replace lab nt entry;
      true

  (* The probe holds the lock for the lookup only; [compute] recurses into
     the children with no lock held.  Two domains racing on one node both
     compute it (labellings are deterministic, so either result is the
     same); the loser's copy is discarded in favour of the published one,
     keeping one table entry per node. *)
  let rec labelling m (h : Ir.Hashcons.h) : labelling =
    let key = h.Ir.Hashcons.id in
    Mutex.lock m.lock;
    match Hashtbl.find_opt m.table key with
    | Some lab ->
      m.memo_hits <- m.memo_hits + 1;
      Mutex.unlock m.lock;
      lab
    | None ->
      Mutex.unlock m.lock;
      let lab = compute m h in
      Mutex.lock m.lock;
      let published =
        match Hashtbl.find_opt m.table key with
        | Some winner -> winner
        | None ->
          m.nodes_labelled <- m.nodes_labelled + 1;
          Hashtbl.replace m.table key lab;
          lab
      in
      Mutex.unlock m.lock;
      published

  and compute m (h : Ir.Hashcons.h) =
    let t = h.Ir.Hashcons.node in
    let lab : labelling = Hashtbl.create 8 in
    let try_base (r : Rule.t) =
      match Pattern.bindings r.pattern h with
      | None -> ()
      | Some bindings ->
        let guard_ok = match r.guard with None -> true | Some g -> g t in
        if guard_ok then begin
          (* Sum the best costs of each bound subtree for its nonterminal. *)
          let rec collect acc covers = function
            | [] -> Some (acc, List.rev covers)
            | (nt, sub) :: rest -> (
              let sub_lab = labelling m sub in
              match Hashtbl.find_opt sub_lab nt with
              | None -> None
              | Some e -> collect (acc + e.cost) (e.cover :: covers) rest)
          in
          match collect (Rule.cost_at r t) [] bindings with
          | None -> ()
          | Some (cost, children) ->
            ignore
              (improve lab r.lhs
                 { cost; cover = { Cover.rule = r; node = t; children } })
        end
    in
    (match Hashtbl.find_opt m.base_by_shape (Pattern.node_shape t) with
    | Some rules -> List.iter try_base rules
    | None -> ());
    (* Chain-rule closure: relax until fixpoint. *)
    let changed = ref true in
    while !changed do
      changed := false;
      List.iter
        (fun (r : Rule.t) ->
          match r.pattern with
          | Pattern.Nonterm src -> (
            match Hashtbl.find_opt lab src with
            | None -> ()
            | Some e ->
              let guard_ok =
                match r.guard with None -> true | Some g -> g t
              in
              if guard_ok then begin
                let entry =
                  {
                    cost = e.cost + Rule.cost_at r t;
                    cover = { Cover.rule = r; node = t; children = [ e.cover ] };
                  }
                in
                if improve lab r.lhs entry then changed := true
              end)
          | Pattern.Const_any | Pattern.Const_eq _ | Pattern.Ref_any
          | Pattern.Unop _ | Pattern.Binop _ ->
            ())
        m.chain_rules
    done;
    lab

  let label m t =
    let lab = labelling m (Ir.Hashcons.intern t) in
    Hashtbl.fold (fun nt e acc -> (nt, e.cost) :: acc) lab []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)

  let best_entry ?nt m h =
    let nt = Option.value ~default:m.grammar.Grammar.start nt in
    Hashtbl.find_opt (labelling m h) nt

  let best_h ?nt m h = Option.map (fun e -> e.cover) (best_entry ?nt m h)

  let best_with_cost ?nt m h =
    Option.map (fun e -> (e.cover, e.cost)) (best_entry ?nt m h)

  let best_of_hvariants ?nt m hvariants =
    (* Costs come from the DP entries — no [Cover.cost] walk per variant. *)
    let consider acc h =
      match best_entry ?nt m h with
      | None -> acc
      | Some e -> (
        match acc with
        | Some (_, best) when best.cost <= e.cost -> acc
        | Some _ | None -> Some (h, e))
    in
    match List.fold_left consider None hvariants with
    | None -> None
    | Some (h, e) -> Some (h, e.cover)
end

type t = { eng : engine; dp : Dp_engine.t option; table : Burs.t option }

let create ?(engine = Table) grammar =
  match engine with
  | Dp -> { eng = Dp; dp = Some (Dp_engine.create grammar); table = None }
  | Table -> { eng = Table; dp = None; table = Some (Burs.create grammar) }

let engine m = m.eng
let dp m = Option.get m.dp
let table m = Option.get m.table

let grammar m =
  match m.eng with
  | Dp -> (dp m).Dp_engine.grammar
  | Table -> Burs.grammar (table m)

let counters m =
  match m.eng with
  | Dp -> Dp_engine.counters (dp m)
  | Table ->
    let a = table m in
    { nodes_labelled = Burs.nodes_labelled a; memo_hits = Burs.memo_hits a }

let label m t =
  match m.eng with
  | Dp -> Dp_engine.label (dp m) t
  | Table -> Burs.label (table m) (Ir.Hashcons.intern t)

let best_h ?nt m h =
  match m.eng with
  | Dp -> Dp_engine.best_h ?nt (dp m) h
  | Table -> Burs.best_cover ?nt (table m) h

let best_with_cost ?nt m h =
  match m.eng with
  | Dp -> Dp_engine.best_with_cost ?nt (dp m) h
  | Table -> (
    let a = table m in
    match Burs.best_cost ?nt a h with
    | None -> None
    | Some cost -> (
      match Burs.best_cover ?nt a h with
      | None -> None
      | Some cover -> Some (cover, cost)))

let best ?nt m t = best_h ?nt m (Ir.Hashcons.intern t)

let best_of_hvariants ?nt m hvariants =
  match m.eng with
  | Dp -> Dp_engine.best_of_hvariants ?nt (dp m) hvariants
  | Table -> (
    let a = table m in
    (* Rank by state-table cost (one slot read per variant); the winning
       cover is materialized once.  Ties keep the earlier variant, like
       the DP fold. *)
    let consider acc h =
      match Burs.best_cost ?nt a h with
      | None -> acc
      | Some c -> (
        match acc with
        | Some (_, best) when best <= c -> acc
        | Some _ | None -> Some (h, c))
    in
    match List.fold_left consider None hvariants with
    | None -> None
    | Some (h, _) -> (
      match Burs.best_cover ?nt a h with
      | None -> None
      | Some cover -> Some (h, cover)))

let best_of_variants ?nt m variants =
  match best_of_hvariants ?nt m (List.map Ir.Hashcons.intern variants) with
  | None -> None
  | Some (h, c) -> Some (Ir.Hashcons.node h, c)

let state_key m h =
  match m.eng with
  | Dp -> None
  | Table -> Some (Burs.state_key (table m) h)

let state_count m =
  match m.eng with Dp -> 0 | Table -> Burs.state_count (table m)

let transition_count m =
  match m.eng with Dp -> 0 | Table -> Burs.transition_count (table m)

let table_build_ms m =
  match m.eng with Dp -> 0. | Table -> Burs.build_ms (table m)
