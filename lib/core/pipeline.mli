(** The RECORD compilation pipeline (paper Fig. 2).

    [compile] takes an explicit machine description and a program through:
    flow-graph construction and tree decomposition, algebraic variant
    generation, iburg-style optimal tree covering, emission, address
    assignment (AGU streams or materialized induction variables), peephole
    cleanup, mode-change minimization, heterogeneous register assignment,
    memory-bank assignment and layout, and code compaction — each phase
    switched by {!Options.t}, so the same pipeline realizes both RECORD and
    the conventional-compiler baseline of Table 1. *)

exception Error of string

type stats = {
  variants_tried : int;  (** algebraic variants matched over all statements *)
  cover_cost : int;  (** summed cost of the selected covers *)
  peephole_removed : int;
  mode_changes : int;  (** mode-setting instructions in the final code *)
  agu_streams : int;  (** address streams assigned to address registers *)
}

type selection_stats = {
  sel_trees : int;  (** data-flow trees put through instruction selection *)
  sel_variants : int;  (** variants matched, originals included *)
  sel_variants_pruned : int;  (** candidates cut by the variant limit *)
  sel_variant_dedup : int;  (** candidates already in a tree's closure *)
  sel_variant_nodes : int;
      (** total node count over all matched variants — the work a matcher
          without subtree sharing would do *)
  sel_nodes_labelled : int;
      (** DP-table entries computed, i.e. distinct subtrees labelled; the
          gap to [sel_variant_nodes] is the shared-table saving *)
  sel_memo_hits : int;  (** labellings served from the shared DP table *)
  sel_dag_cuts : int;
      (** shared subtrees the DAG planner materialized into scratch cells
          (zero under [Tree] selection) *)
  sel_cross_tree_cse : int;
      (** values reused across statement boundaries: LVN eliminations that
          crossed a tree boundary plus cut occurrences served beyond each
          cut's definition *)
  sel_states : int;
      (** BURS automaton states constructed so far by the matcher (total,
          not a delta — the automaton is shared per target; 0 on the DP
          engine) *)
  sel_state_prunes : int;
      (** variants dropped by automaton state equivalence before ranking
          (0 on the DP engine, which has no sound prune key) *)
  sel_table_build_ms : float;
      (** wall-clock ms the matcher has spent building its offline
          state/transition tables (total per matcher; 0 on DP) *)
}
(** Counters from the selection phase (variant generation + BURG matching),
    deltas for this compilation even when the matcher is shared. *)

type compiled = {
  machine : Target.Machine.t;
  prog : Ir.Prog.t;  (** the source program (before internal rewrites) *)
  options : Options.t;
  asm : Target.Asm.t;
  layout : Target.Layout.t;
  pool : (string * int) list;
      (** constant-pool cells with their load-time values, part of the
          program image the simulator initializes *)
  stats : stats;
  selection : selection_stats;
  phase_ms : (string * float) list;
      (** wall-clock trace spans, one [(phase, milliseconds)] pair per
          pipeline phase that ran, in execution order *)
}

val compile :
  ?options:Options.t ->
  ?matcher:Burg.Matcher.t ->
  Target.Machine.t ->
  Ir.Prog.t ->
  compiled
(** Default options are {!Options.record_}.

    [matcher] lets a caller supply a long-lived matcher whose shared DP
    table persists across compilations (the driver's batch service keeps
    one per target); it must have been created from this machine's grammar.
    Without it a fresh matcher is created per run.
    @raise Error when the program cannot be compiled for the machine (no
    cover, AGU exhaustion, register pressure, mode verification failure).
    @raise Invalid_argument when [matcher] was built for another grammar.
    @raise Sim.Deadline.Expired when the calling domain's deadline passes;
    it is polled after every phase and, during selection, before every
    statement (tree mode) or statement run (dag mode). *)

val words : compiled -> int
(** Code size in instruction words. *)

val execute : ?engine:Sim.engine -> compiled -> inputs:(string * int array) list
  -> (string * int array) list * int
(** Runs the code on the simulator; returns the program outputs and the
    cycle count.  [engine] selects the simulator engine (default
    [Sim.Compiled]). *)
