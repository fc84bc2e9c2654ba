exception Error of string

type stats = {
  variants_tried : int;
  cover_cost : int;
  peephole_removed : int;
  mode_changes : int;
  agu_streams : int;
}

type selection_stats = {
  sel_trees : int;
  sel_variants : int;
  sel_variants_pruned : int;
  sel_variant_dedup : int;
  sel_variant_nodes : int;
  sel_nodes_labelled : int;
  sel_memo_hits : int;
  sel_dag_cuts : int;
  sel_cross_tree_cse : int;
  sel_states : int;
  sel_state_prunes : int;
  sel_table_build_ms : float;
}

type compiled = {
  machine : Target.Machine.t;
  prog : Ir.Prog.t;
  options : Options.t;
  asm : Target.Asm.t;
  layout : Target.Layout.t;
  pool : (string * int) list;
      (** constant-pool cells and their load-time initial values *)
  stats : stats;
  selection : selection_stats;
  phase_ms : (string * float) list;
      (** wall-clock trace spans, one per pipeline phase, in execution
          order; the driver's JSON protocol surfaces them per job *)
}

(* ---- Source-level rewrites (flow graph phase) -------------------------- *)

(* Naive macro expansion: home every interior node to a fresh temporary.
   Saturation is kept glued to the operation it wraps, as a compiler
   intrinsic would be. *)
let cut_all ~fresh (stmts : Ir.Prog.stmt list) =
  let decls = ref [] in
  let out = ref [] in
  let cut t =
    let name = fresh () in
    decls := Ir.Prog.scalar_decl name :: !decls;
    out := { Ir.Prog.dst = Ir.Mref.scalar name; src = t } :: !out;
    Ir.Tree.Ref (Ir.Mref.scalar name)
  in
  let rec sub t =
    match t with
    | Ir.Tree.Const _ | Ir.Tree.Ref _ -> t
    | Ir.Tree.Unop _ | Ir.Tree.Binop _ -> cut (shallow t)
  and shallow t =
    match t with
    | Ir.Tree.Const _ | Ir.Tree.Ref _ -> t
    | Ir.Tree.Unop (Ir.Op.Sat, (Ir.Tree.Binop _ as b)) ->
      Ir.Tree.Unop (Ir.Op.Sat, shallow b)
    | Ir.Tree.Unop (op, a) -> Ir.Tree.Unop (op, sub a)
    | Ir.Tree.Binop (op, a, b) -> Ir.Tree.Binop (op, sub a, sub b)
  in
  List.iter
    (fun (s : Ir.Prog.stmt) ->
      let src = shallow s.src in
      out := { s with src } :: !out)
    stmts;
  (List.rev !out, List.rev !decls)

(* Full unrolling: a loop within the limit becomes straight-line code, its
   induction references resolved to constant elements per iteration. *)
let rec unroll limit items =
  List.concat_map
    (fun item ->
      match item with
      | Ir.Prog.Stmt _ -> [ item ]
      | Ir.Prog.Loop { ivar; count; body } ->
        let body = unroll limit body in
        if count > limit then [ Ir.Prog.Loop { ivar; count; body } ]
        else
          let resolve i (r : Ir.Mref.t) =
            match r.index with
            | Ir.Mref.Induct { ivar = v; offset; step } when v = ivar ->
              Ir.Mref.elem r.base (offset + (step * i))
            | Ir.Mref.Induct _ | Ir.Mref.Direct | Ir.Mref.Elem _ -> r
          in
          let rec copy i = function
            | Ir.Prog.Stmt { dst; src } ->
              Ir.Prog.Stmt
                { dst = resolve i dst; src = Ir.Tree.map_refs (resolve i) src }
            | Ir.Prog.Loop l ->
              Ir.Prog.Loop { l with body = List.map (copy i) l.body }
          in
          List.concat_map
            (fun i -> List.map (copy i) body)
            (List.init count (fun i -> i)))
    items

let source_rewrite (options : Options.t) (prog : Ir.Prog.t) =
  (* Declarations of the temporaries the block rewrites introduce, newest
     first. *)
  let extra_decls = ref [] in
  let declaring rewrite block =
    let stmts, decls = rewrite block in
    extra_decls := List.rev_append decls !extra_decls;
    stmts
  in
  let counter = ref 0 in
  let fresh () =
    let name = Printf.sprintf "$e%d" !counter in
    incr counter;
    name
  in
  let body = prog.body in
  let body =
    if options.unroll_limit > 0 then unroll options.unroll_limit body
    else body
  in
  let body =
    (* Under DAG covering, sharing decisions move from the source level to
       the selection level: the run planner (Select.Dag) sees the shared
       subtrees via canonical ids and decides cut vs. register reuse by
       trial emission — a pre-pass that cuts everything to memory would
       make that decision for it, and always in favour of the round-trip. *)
    if options.cse && options.selection_mode = Options.Tree then
      Ir.Prog.map_runs (declaring Ir.Dfg.decompose) body
    else body
  in
  let body =
    match options.selection with
    | Options.Naive_macro -> Ir.Prog.map_runs (declaring (cut_all ~fresh)) body
    | Options.Optimal_variants -> body
  in
  let extra_decls = List.rev !extra_decls in
  ({ prog with body; decls = prog.decls @ extra_decls }, extra_decls)

(* ---- Instruction selection and emission -------------------------------- *)

(* Mutable accumulator for the selection counters of one compilation; the
   algebra counters are incremented in place by [Algebra.variants]. *)
type sel_acc = {
  vc : Ir.Algebra.counters;
  mutable trees : int;
  mutable variants_matched : int;
  mutable variant_nodes : int;
}

let note_cover stats ~cost ~tried =
  stats :=
    {
      !stats with
      variants_tried = (!stats).variants_tried + tried;
      cover_cost = (!stats).cover_cost + cost;
    }

(* Tree-mode selection of one statement tree: the cheapest cover over the
   tree's variants. *)
let select matcher variants stats tree =
  let vs = variants (Ir.Hashcons.intern tree) in
  match Burg.Matcher.best_of_hvariants matcher vs with
  | Some (_v, cover) ->
    note_cover stats ~cost:(Burg.Cover.cost cover) ~tried:(List.length vs);
    cover
  | None ->
    raise (Error ("no instruction cover for " ^ Ir.Tree.to_string tree))

let the_naive_agu machine =
  match machine.Target.Machine.naive_agu with
  | Some n -> n
  | None -> raise (Error (machine.Target.Machine.name ^ ": no naive addressing"))

let ar_class machine =
  match machine.Target.Machine.agu with
  | Some a -> a.Target.Machine.ar_cls
  | None -> machine.Target.Machine.loop_.Target.Machine.counter_cls

(* Materialized-induction addressing for one statement: compute every
   induction access's address into its own register FIRST (the accumulator is
   free at statement boundaries), then rewrite the statement's instructions
   to go through those registers. [cells] maps live induction variables to
   their memory cells. *)
let naive_stmt_addresses machine ctx cells ~dst ~src =
  let naive = the_naive_agu machine in
  let induct_refs =
    List.filter
      (fun (r : Ir.Mref.t) ->
        match r.index with
        | Ir.Mref.Induct { ivar; _ } -> List.mem_assoc ivar cells
        | Ir.Mref.Direct | Ir.Mref.Elem _ -> false)
      (Ir.Tree.refs src @ [ dst ])
    |> List.sort_uniq Ir.Mref.compare
  in
  let ar_map =
    List.map
      (fun (r : Ir.Mref.t) ->
        let ivar =
          match r.index with
          | Ir.Mref.Induct { ivar; _ } -> ivar
          | Ir.Mref.Direct | Ir.Mref.Elem _ -> assert false
        in
        let ar = Target.Machine.fresh_vreg ctx (ar_class machine) in
        naive.Target.Machine.address_into ctx ar
          ~ivar_cell:(List.assoc ivar cells) ~stream:r;
        (r, ar))
      induct_refs
  in
  let rewrite op =
    match op with
    | Target.Instr.Dir r -> (
      match List.assoc_opt r ar_map with
      | Some ar ->
        Target.Instr.Ind (Target.Instr.Vreg ar, Target.Instr.No_update, Some r)
      | None -> op)
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
    | Target.Instr.Adr _ | Target.Instr.Ind _ ->
      op
  in
  rewrite

(* The counters one DAG compilation's run planner accumulates. *)
type dag_state = {
  dlvn : Select.Lvn.counters;
  dcounters : Select.Dag.counters;
}

(* Lowering walks the items grouped into maximal straight-line statement
   runs. In Tree mode a run is simply lowered statement by statement
   (byte-identical to per-item lowering); in Dag mode the whole
   run goes to the Select.Dag planner, which shares subtree results and
   chooses variants against the machine state earlier statements left. *)
let rec lower machine matcher ctx (options : Options.t) stats variants dag
    cells items =
  let rewrite_for (s : Ir.Prog.stmt) =
    match options.agu with
    | Options.Materialize_ivar when cells <> [] ->
      naive_stmt_addresses machine ctx cells ~dst:s.dst ~src:s.src
    | Options.Materialize_ivar | Options.Streams -> fun op -> op
  in
  let tree_stmt (s : Ir.Prog.stmt) =
    Ir.Deadline.check ();
    let rewrite = rewrite_for s in
    let addr_pre = Target.Machine.drain ctx in
    let cover = select matcher variants stats s.src in
    let value = Target.Machine.run_cover machine ctx cover in
    machine.Target.Machine.store ctx s.dst value;
    let body = Target.Machine.drain ctx in
    List.map
      (fun i -> Target.Asm.Op (Target.Instr.map_operands rewrite i))
      (addr_pre @ body)
  in
  let lower_run stmts =
    match dag with
    | None -> List.concat_map tree_stmt stmts
    | Some d ->
      Ir.Deadline.check ();
      let instrs =
        try
          Select.Dag.lower_run ~machine ~matcher ~variants
            ~lvn_counters:d.dlvn ~counters:d.dcounters
            ~note_cover:(note_cover stats) ~rewrite_for ctx stmts
        with Select.Dag.No_cover t ->
          raise (Error ("no instruction cover for " ^ Ir.Tree.to_string t))
      in
      List.map (fun i -> Target.Asm.Op i) instrs
  in
  Ir.Prog.concat_map_runs ~run:lower_run
    ~loop:(fun { Ir.Prog.ivar; count; body } ->
      lower_loop_item machine matcher ctx options stats variants dag cells
        ~ivar ~count body)
    items

and lower_loop_item machine matcher ctx (options : Options.t) stats variants
    dag cells ~ivar ~count body =
  let lower_body cells =
    lower machine matcher ctx options stats variants dag cells body
  in
  (* The code before the loop, the loop's residual induction variable, its
     body, and what each iteration runs before the loop control. *)
  let init, ivar, body_items, step =
    match options.agu with
    | Options.Streams -> (
      let body_items = lower_body cells in
      (* Address streams of this loop, before the loop-control
         instructions so hardware loops stay adjacent to their body. *)
      match machine.Target.Machine.agu with
      | Some agu -> (
        match Opt.Agu.lower_loop agu ctx ivar body_items with
        | inits, body', n ->
          stats := { !stats with agu_streams = (!stats).agu_streams + n };
          (inits, None, body', [])
        | exception Opt.Agu.Too_many_streams msg -> raise (Error msg)
        | exception Opt.Agu.Unsupported msg -> raise (Error msg))
      | None -> ([], Some ivar, body_items, []))
    | Options.Materialize_ivar ->
      let naive = the_naive_agu machine in
      let cell = Target.Machine.fresh_scratch ctx in
      machine.Target.Machine.store ctx cell (Target.Machine.Imm 0);
      let init = Target.Machine.drain ctx in
      let body_items = lower_body ((ivar, cell) :: cells) in
      naive.Target.Machine.incr_cell ctx cell;
      (init, Some ivar, body_items, Target.Machine.drain ctx)
  in
  let control = machine.Target.Machine.loop_ in
  let counter = control.Target.Machine.loop_pre ctx ~count in
  let pre = Target.Machine.drain ctx in
  control.Target.Machine.loop_close ctx counter;
  let close = Target.Machine.drain ctx in
  let ops = List.map (fun i -> Target.Asm.Op i) in
  ops (init @ pre)
  @ [ Target.Asm.Loop { ivar; count; body = body_items @ ops (step @ close) } ]

(* No induction reference may survive to allocation. *)
let check_no_induct items =
  let bad = ref None in
  let rec check_op op =
    match op with
    | Target.Instr.Dir ({ Ir.Mref.index = Ir.Mref.Induct _; _ } as r) ->
      bad := Some r
    | Target.Instr.Ind (ar, _, _) -> check_op ar
    | Target.Instr.Dir _ | Target.Instr.Reg _ | Target.Instr.Vreg _
    | Target.Instr.Imm _ | Target.Instr.Adr _ ->
      ()
  in
  Target.Asm.iter_items
    (fun (i : Target.Instr.t) ->
      List.iter check_op (i.operands @ i.defs @ i.uses))
    items;
  match !bad with
  | Some r ->
    raise
      (Error
         ("induction reference not lowered: " ^ Ir.Mref.to_string r))
  | None -> ()

(* Words of one packed word must touch pairwise distinct banks; indirect
   accesses have unknown banks and conflict with every other memory access. *)
let bank_word_ok layout instrs =
  (* One bank tag per distinct memory location touched by the word; an
     indirect access of unknown provenance is a wildcard conflicting with
     every other access. *)
  let refs = ref [] in
  let wildcards = ref 0 in
  let of_op op =
    match op with
    | Target.Instr.Dir r | Target.Instr.Ind (_, _, Some r) ->
      if not (List.exists (Ir.Mref.equal r) !refs) then refs := r :: !refs
    | Target.Instr.Ind (_, _, None) -> incr wildcards
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
    | Target.Instr.Adr _ ->
      ()
  in
  List.iter
    (fun (i : Target.Instr.t) ->
      List.iter of_op (i.Target.Instr.operands @ i.Target.Instr.defs
                       @ i.Target.Instr.uses))
    instrs;
  let banks = List.map (Target.Layout.bank_of_ref layout) !refs in
  let mem_accesses = List.length banks + !wildcards in
  mem_accesses <= 1
  || (!wildcards = 0 && List.length (List.sort_uniq compare banks) = List.length banks)

let compile ?(options = Options.record_) ?matcher machine (prog : Ir.Prog.t) =
  (* Per-phase wall-clock spans, appended in execution order.  The spans are
     part of {!compiled} so callers (the driver's batch scheduler, the JSON
     protocol) can surface where compile time goes without re-instrumenting
     the pipeline.  Each phase boundary also polls the job's deadline. *)
  let spans = ref [] in
  let timed name f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    spans := (name, (Unix.gettimeofday () -. t0) *. 1000.0) :: !spans;
    Ir.Deadline.check ();
    r
  in
  timed "validate" (fun () ->
      match Ir.Prog.validate prog with
      | Ok () -> ()
      | Error msg -> raise (Error ("invalid program: " ^ msg)));
  let prog', _added =
    timed "source-rewrite" (fun () -> source_rewrite options prog)
  in
  (* A caller-provided matcher (the driver's long-lived per-target matcher)
     brings its warm DP table; labellings depend only on the grammar, so
     reuse across programs is sound. *)
  let matcher =
    match matcher with
    | Some m ->
      if not (Burg.Matcher.grammar m == machine.Target.Machine.grammar) then
        invalid_arg "Pipeline.compile: matcher built for a different grammar";
      if Burg.Matcher.engine m <> options.matcher then
        invalid_arg "Pipeline.compile: matcher engine differs from options";
      m
    | None ->
      Burg.Matcher.create ~engine:options.matcher machine.Target.Machine.grammar
  in
  (* State-equivalence pruning is sound for per-tree ranking only: two
     variants in the same automaton state have equal cover costs for every
     nonterminal, so Tree-mode selection keeps one.  The Dag planner
     scores variants against cross-tree sharing and machine state, which
     equal-cost variants can still differ on — that mode keeps the full
     enumeration. *)
  let prune_key =
    match options.selection_mode with
    | Options.Tree -> Burg.Matcher.state_key matcher
    | Options.Dag -> fun _ -> None
  in
  let mc0 = Burg.Matcher.counters matcher in
  let ctx = Target.Machine.create_ctx () in
  let stats =
    ref
      {
        variants_tried = 0;
        cover_cost = 0;
        peephole_removed = 0;
        mode_changes = 0;
        agu_streams = 0;
      }
  in
  let sel =
    {
      vc = Ir.Algebra.fresh_counters ();
      trees = 0;
      variants_matched = 0;
      variant_nodes = 0;
    }
  in
  (* One variant generator for both modes.  The Dag planner calls it once
     per distinct canonical tree per run, so the per-tree selection
     counters mean the same in both. *)
  let variants (h : Ir.Hashcons.h) =
    let vs =
      match options.selection with
      | Options.Optimal_variants ->
        Ir.Algebra.hvariants ~rules:options.algebra_rules
          ~limit:options.variant_limit ~counters:sel.vc ~prune_key h
      | Options.Naive_macro -> [ h ]
    in
    sel.trees <- sel.trees + 1;
    sel.variants_matched <- sel.variants_matched + List.length vs;
    sel.variant_nodes <-
      List.fold_left
        (fun acc (v : Ir.Hashcons.h) -> acc + v.Ir.Hashcons.size)
        sel.variant_nodes vs;
    vs
  in
  let dag =
    match options.selection_mode with
    | Options.Tree -> None
    | Options.Dag ->
      Some
        {
          dlvn = Select.Lvn.fresh_counters ();
          dcounters = Select.Dag.fresh_counters ();
        }
  in
  let items =
    timed "select-emit" (fun () ->
        let items =
          try lower machine matcher ctx options stats variants dag [] prog'.body
          with Target.Machine.Unsupported msg -> raise (Error msg)
        in
        check_no_induct items;
        items)
  in
  let selection =
    let mc1 = Burg.Matcher.counters matcher in
    {
      sel_trees = sel.trees;
      sel_variants = sel.variants_matched;
      sel_variants_pruned = sel.vc.Ir.Algebra.pruned;
      sel_variant_dedup = sel.vc.Ir.Algebra.dedup_hits;
      sel_variant_nodes = sel.variant_nodes;
      sel_nodes_labelled =
        mc1.Burg.Matcher.nodes_labelled - mc0.Burg.Matcher.nodes_labelled;
      sel_memo_hits = mc1.Burg.Matcher.memo_hits - mc0.Burg.Matcher.memo_hits;
      sel_dag_cuts = (match dag with None -> 0 | Some d -> d.dcounters.cuts);
      sel_cross_tree_cse =
        (match dag with
        | None -> 0
        | Some d ->
          d.dlvn.Select.Lvn.cross_stmt + d.dcounters.Select.Dag.cut_reuses);
      sel_states = Burg.Matcher.state_count matcher;
      sel_state_prunes = sel.vc.Ir.Algebra.state_prunes;
      sel_table_build_ms = Burg.Matcher.table_build_ms matcher;
    }
  in
  let items =
    if options.peephole then
      timed "peephole" (fun () ->
          let before = items in
          let after = Opt.Peephole.run items in
          stats :=
            {
              !stats with
              peephole_removed = Opt.Peephole.removed ~before ~after;
            };
          after)
    else items
  in
  let items =
    timed "modeopt" (fun () ->
        let items =
          Opt.Modeopt.run ~strategy:options.mode_strategy machine items
        in
        (match Opt.Modeopt.verify machine items with
        | Ok () -> ()
        | Error msg -> raise (Error ("mode verification failed: " ^ msg)));
        stats :=
          { !stats with mode_changes = Opt.Modeopt.changes_inserted items };
        items)
  in
  let asm = Target.Asm.make ~name:prog.name items in
  let asm =
    timed "regalloc" (fun () ->
        try Opt.Regalloc.run ~ctx machine asm with
        | Opt.Regalloc.Pressure msg ->
          raise (Error ("register pressure: " ^ msg)))
  in
  let asm, scratch_decls =
    timed "scratchpack" (fun () -> Opt.Scratchpack.run asm)
  in
  let pool = Target.Machine.const_cells ctx in
  let extra = scratch_decls @ List.map (fun (name, _) -> (name, 1)) pool in
  let layout =
    timed "layout" (fun () ->
        let banks = machine.Target.Machine.banks in
        match (options.membank, banks) with
        | true, [ a; b ] ->
          let weights = Opt.Membank.pair_weights prog in
          let vars = List.map (fun (d : Ir.Prog.decl) -> d.name) prog'.decls in
          let bank_of_var = Opt.Membank.assign ~banks:(a, b) ~weights ~vars in
          Target.Layout.of_prog ~bank_of:bank_of_var ~banks prog' ~extra
        | _, _ -> Target.Layout.of_prog ~banks prog' ~extra)
  in
  let asm =
    if options.compaction then
      timed "compaction" (fun () ->
          Opt.Compaction.run ~word_ok:(bank_word_ok layout) machine asm)
    else asm
  in
  {
    machine;
    prog;
    options;
    asm;
    layout;
    pool;
    stats = !stats;
    selection;
    phase_ms = List.rev !spans;
  }

let words c = Target.Asm.words c.asm

let execute ?engine c ~inputs =
  (* The constant pool is load-time data, part of the program image. *)
  let image = inputs @ List.map (fun (n, v) -> (n, [| v |])) c.pool in
  Sim.simulate ~width:c.machine.Target.Machine.word_bits ?engine c.machine
    ~layout:c.layout ~inputs:image c.asm c.prog
