(* DAG covering over the hash-consed IR, one maximal statement run at a
   time.

   Tree covering loses CSE at tree boundaries in two ways: a shared
   subtree is recomputed by every tree that contains it, and the variant
   chosen for one tree ignores the machine state the previous tree left
   behind.  Canonical ids make the first loss free to detect — a shared
   subtree is literally the same [Ir.Hashcons.h] across trees — and trial
   emission against the run's running {!Lvn} state fixes the second.

   The planner works per run:

   1. {b Cut planning.}  Count occurrences of every interior subtree id
      across the run's trees (within-tree duplicates included), mirror
      {!Ir.Dfg}'s protection of anything under a saturation operator,
      and validate occurrences against intervening memory writes at base
      granularity.  Each candidate cut (materialize the subtree once into
      a scratch cell, replace every occurrence with a cell read) is
      accepted greedily iff a trial emission of the whole run gets
      smaller.  Trial emission — not a cost heuristic — decides, because
      on accumulator machines a register-level reuse (no cut, {!Lvn}
      elimination) regularly beats a memory round-trip, and only the
      emitted words can tell.

   2. {b Boundary-aware covering.}  Per statement, the candidate variants
      are the minimum-cover-cost members of the variant set (the DP cost
      from the shared table ranks them for free).  Each candidate is
      trial-emitted into a context snapshot and scored by emitted words
      minus the {!Lvn} gain against the state the previous statements
      left; the winner is emitted for real and the run's availability
      state advances through it.  Ties break toward the earlier variant,
      so [Tree]-mode choices are reproduced whenever nothing is gained.

   All trial emission happens against context snapshots (the emission
   context is a handful of mutable fields), so virtual-register numbering
   in the committed program is identical to a single straight emission. *)

exception No_cover of Ir.Tree.t

(* Trial-emission cap: minimum-cost variants tried per statement. *)
let max_candidates = 12

type counters = {
  mutable cuts : int;  (* shared subtrees materialized into scratch cells *)
  mutable cut_reuses : int;  (* occurrences served by a cut beyond the def *)
}

let fresh_counters () = { cuts = 0; cut_reuses = 0 }

(* ---- Context snapshots -------------------------------------------------- *)

type snap = {
  s_buffer : Target.Instr.t list;
  s_next_vreg : int;
  s_next_scratch : int;
  s_scratch : (string * int) list;
  s_consts : (string * int) list;
}

let snapshot (ctx : Target.Machine.ctx) =
  {
    s_buffer = ctx.buffer;
    s_next_vreg = ctx.next_vreg;
    s_next_scratch = ctx.next_scratch;
    s_scratch = ctx.scratch;
    s_consts = ctx.consts;
  }

let restore (ctx : Target.Machine.ctx) s =
  ctx.buffer <- s.s_buffer;
  ctx.next_vreg <- s.s_next_vreg;
  ctx.next_scratch <- s.s_next_scratch;
  ctx.scratch <- s.s_scratch;
  ctx.consts <- s.s_consts

(* ---- Cut candidates ----------------------------------------------------- *)

type occ_info = {
  handle : Ir.Hashcons.h;
  mutable count : int;
  mutable first_stmt : int;
  mutable last_stmt : int;
  mutable protected_ : bool;
}

(* Interior subtree occurrences across the run, in deterministic
   first-encounter order. Anything under a Sat operator is protected,
   exactly as in {!Ir.Dfg}: materializing it in a word-sized cell would
   wrap the exact value saturation needs. *)
let occurrences (hs : (int * Ir.Hashcons.h) list) =
  let table : (int, occ_info) Hashtbl.t = Hashtbl.create 64 in
  let order : int list ref = ref [] in
  let rec walk stmt_idx ~protected_ (h : Ir.Hashcons.h) =
    (match h.Ir.Hashcons.node with
    | Ir.Tree.Const _ | Ir.Tree.Ref _ -> ()
    | Ir.Tree.Unop _ | Ir.Tree.Binop _ -> (
      match Hashtbl.find_opt table h.Ir.Hashcons.id with
      | Some info ->
        info.count <- info.count + 1;
        info.last_stmt <- stmt_idx;
        if protected_ then info.protected_ <- true
      | None ->
        Hashtbl.replace table h.Ir.Hashcons.id
          {
            handle = h;
            count = 1;
            first_stmt = stmt_idx;
            last_stmt = stmt_idx;
            protected_;
          };
        order := h.Ir.Hashcons.id :: !order));
    let protected_ =
      protected_
      ||
      match h.Ir.Hashcons.node with
      | Ir.Tree.Unop (Ir.Op.Sat, _) -> true
      | _ -> false
    in
    Array.iter (walk stmt_idx ~protected_) h.Ir.Hashcons.kids
  in
  List.iter (fun (idx, h) -> walk idx ~protected_:false h) hs;
  List.rev_map (fun id -> Hashtbl.find table id) !order

(* A shared subtree may be reused from its first occurrence only if no
   statement in between (the first occurrence's own store included)
   writes any base it reads — the same conservative base-granularity
   aliasing treatment as {!Ir.Dfg}'s versions. *)
let aliasing_ok (stmts : Ir.Prog.stmt list) info =
  info.first_stmt = info.last_stmt
  ||
  let read_bases =
    List.sort_uniq String.compare
      (List.map
         (fun (r : Ir.Mref.t) -> r.base)
         (Ir.Tree.refs info.handle.Ir.Hashcons.node))
  in
  let rec check idx = function
    | [] -> true
    | (s : Ir.Prog.stmt) :: rest ->
      if idx >= info.last_stmt then true
      else if
        idx >= info.first_stmt && List.mem s.dst.Ir.Mref.base read_bases
      then false
      else check (idx + 1) rest
  in
  check 0 stmts

let cut_candidates stmts hs =
  occurrences hs
  |> List.filter (fun info ->
         info.count >= 2
         && info.handle.Ir.Hashcons.size >= 2
         && (not info.protected_)
         && aliasing_ok stmts info)
  (* Larger subtrees first, so a nested cut rewrites inside the outer
     cut's definition; [List.stable_sort] keeps first-encounter order
     within a size. *)
  |> List.stable_sort (fun a b ->
         compare b.handle.Ir.Hashcons.size a.handle.Ir.Hashcons.size)

(* Apply one cut: insert the definition before the first statement whose
   tree contains the subtree, and replace every occurrence (the
   definition's own right-hand side keeps the subtree, with only its
   strict subtrees subject to later cuts). *)
let replace_in_tree sid cell (t : Ir.Tree.t) =
  let rec go (h : Ir.Hashcons.h) =
    if h.Ir.Hashcons.id = sid then Ir.Tree.Ref cell
    else
      match h.Ir.Hashcons.node with
      | Ir.Tree.Const _ | Ir.Tree.Ref _ -> h.Ir.Hashcons.node
      | Ir.Tree.Unop (op, _) -> Ir.Tree.Unop (op, go h.Ir.Hashcons.kids.(0))
      | Ir.Tree.Binop (op, _, _) ->
        Ir.Tree.Binop
          (op, go h.Ir.Hashcons.kids.(0), go h.Ir.Hashcons.kids.(1))
  in
  go (Ir.Hashcons.intern t)

let rec contains sid (h : Ir.Hashcons.h) =
  h.Ir.Hashcons.id = sid || Array.exists (contains sid) h.Ir.Hashcons.kids

let apply_cut ctx (info : occ_info) (stmts : Ir.Prog.stmt list) =
  let sid = info.handle.Ir.Hashcons.id in
  if
    not
      (List.exists
         (fun (s : Ir.Prog.stmt) -> contains sid (Ir.Hashcons.intern s.src))
         stmts)
  then stmts
  else begin
    let cell = Target.Machine.fresh_scratch ctx in
    let def = { Ir.Prog.dst = cell; src = info.handle.Ir.Hashcons.node } in
    let rec insert placed = function
      | [] -> if placed then [] else [ def ]
      | (s : Ir.Prog.stmt) :: rest ->
        let has = contains sid (Ir.Hashcons.intern s.src) in
        let s' =
          if has then { s with Ir.Prog.src = replace_in_tree sid cell s.src }
          else s
        in
        if has && not placed then def :: s' :: insert true rest
        else s' :: insert placed rest
    in
    insert false stmts
  end

let apply_plan ctx plan stmts =
  List.fold_left (fun stmts info -> apply_cut ctx info stmts) stmts plan

(* ---- Per-statement covering --------------------------------------------- *)

type candidate = {
  c_handle : Ir.Hashcons.h;
  c_cover : Burg.Cover.t;
  c_cost : int;
}

(* Minimum-cover-cost variants in enumeration order, capped; cached per
   canonical id so trial runs and the committed run price each distinct
   tree exactly once (both for time and so selection-stats accounting in
   [variants] fires once per distinct tree). *)
type var_cache = (int, int * candidate list) Hashtbl.t

let candidates_for (cache : var_cache) ~matcher ~variants
    (h : Ir.Hashcons.h) =
  match Hashtbl.find_opt cache h.Ir.Hashcons.id with
  | Some r -> r
  | None ->
    let variants = variants h in
    let priced =
      List.filter_map
        (fun v ->
          match Burg.Matcher.best_with_cost matcher v with
          | None -> None
          | Some (cover, cost) ->
            Some { c_handle = v; c_cover = cover; c_cost = cost })
        variants
    in
    let best =
      List.fold_left
        (fun acc c ->
          match acc with Some b when b <= c.c_cost -> acc | _ -> Some c.c_cost)
        None priced
    in
    let chosen =
      match best with
      | None -> []
      | Some b ->
        let rec take n = function
          | [] -> []
          | c :: rest ->
            if n = 0 then []
            else if c.c_cost = b then c :: take (n - 1) rest
            else take n rest
        in
        take max_candidates priced
    in
    let r = (List.length variants, chosen) in
    Hashtbl.replace cache h.Ir.Hashcons.id r;
    r

let instr_words instrs =
  List.fold_left (fun acc (i : Target.Instr.t) -> acc + i.words) 0 instrs

(* Emit one statement: trial-emit each minimum-cost candidate, score by
   emitted words minus LVN gain against the run state, commit the winner. *)
let emit_stmt ~machine ~matcher ~variants ~cache ~lvn ~lvn_counters ~note_cover
    ~rewrite_for ctx (s : Ir.Prog.stmt) =
  Lvn.boundary lvn;
  let rewrite = rewrite_for s in
  let addr_pre =
    List.map (Target.Instr.map_operands rewrite) (Target.Machine.drain ctx)
  in
  let h = Ir.Hashcons.intern s.src in
  let tried, cands = candidates_for cache ~matcher ~variants h in
  match cands with
  | [] -> raise (No_cover s.src)
  | [ only ] ->
    let value = Target.Machine.run_cover machine ctx only.c_cover in
    machine.Target.Machine.store ctx s.dst value;
    let body =
      List.map (Target.Instr.map_operands rewrite) (Target.Machine.drain ctx)
    in
    note_cover ~cost:only.c_cost ~tried;
    Lvn.process lvn lvn_counters (addr_pre @ body)
  | _ :: _ ->
    let emit_body c =
      let value = Target.Machine.run_cover machine ctx c.c_cover in
      machine.Target.Machine.store ctx s.dst value;
      List.map (Target.Instr.map_operands rewrite) (Target.Machine.drain ctx)
    in
    let snap0 = snapshot ctx in
    let best =
      List.fold_left
        (fun acc c ->
          let body = emit_body c in
          restore ctx snap0;
          let score = instr_words body - Lvn.gain lvn body in
          match acc with
          | Some (_, s0) when s0 <= score -> acc
          | Some _ | None -> Some (c, score))
        None cands
    in
    let c, _ = Option.get best in
    let body = emit_body c in
    note_cover ~cost:c.c_cost ~tried;
    Lvn.process lvn lvn_counters (addr_pre @ body)

let emit_run ~machine ~matcher ~variants ~cache ~lvn ~lvn_counters ~note_cover
    ~rewrite_for ctx stmts =
  List.concat_map
    (fun s ->
      emit_stmt ~machine ~matcher ~variants ~cache ~lvn ~lvn_counters
        ~note_cover ~rewrite_for ctx s)
    stmts

(* ---- The run planner ----------------------------------------------------- *)

let lower_run ~machine ~matcher ~variants ~lvn_counters ~counters ~note_cover
    ~rewrite_for ctx (stmts : Ir.Prog.stmt list) =
  (* Availability is a per-run notion: a run is a maximal straight-line
     statement sequence, so the state always starts empty and both the
     trials and the committed emission replay it from scratch. *)
  let lvn = Lvn.create () in
  let cache : var_cache = Hashtbl.create 16 in
  let hs =
    List.mapi (fun idx (s : Ir.Prog.stmt) -> (idx, Ir.Hashcons.intern s.src))
      stmts
  in
  let candidates = cut_candidates stmts hs in
  (* Trial lowering of the whole run under a cut plan: context and LVN
     state are snapshotted, counters are dummies, and only the emitted
     word count survives. *)
  let trial plan =
    let snap0 = snapshot ctx in
    let lvn' = Lvn.create () in
    let result =
      try
        let stmts' = apply_plan ctx plan stmts in
        let instrs =
          emit_run ~machine ~matcher ~variants ~cache ~lvn:lvn'
            ~lvn_counters:(Lvn.fresh_counters ())
            ~note_cover:(fun ~cost:_ ~tried:_ -> ())
            ~rewrite_for ctx stmts'
        in
        Some (instr_words instrs)
      with No_cover _ -> None
    in
    restore ctx snap0;
    result
  in
  let plan =
    match (candidates, trial []) with
    | [], _ | _, None -> []
    | _ :: _, Some w0 ->
      let plan, _ =
        List.fold_left
          (fun (plan, w0) cand ->
            match trial (plan @ [ cand ]) with
            | Some w1 when w1 < w0 -> (plan @ [ cand ], w1)
            | Some _ | None -> (plan, w0))
          ([], w0) candidates
      in
      plan
  in
  List.iter
    (fun info ->
      counters.cuts <- counters.cuts + 1;
      counters.cut_reuses <- counters.cut_reuses + info.count - 1)
    plan;
  let stmts' = apply_plan ctx plan stmts in
  emit_run ~machine ~matcher ~variants ~cache ~lvn ~lvn_counters ~note_cover
    ~rewrite_for ctx stmts'
