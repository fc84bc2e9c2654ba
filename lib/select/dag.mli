(** DAG covering over the hash-consed IR, one maximal statement run at a
    time.

    Canonical ids make shared subtrees across tree boundaries free to
    detect; this planner materializes profitable ones once (scratch cell,
    decided by trial emission of the whole run) and chooses each tree's
    variant aware of the machine state the previous trees left behind
    (scored against the run's {!Lvn} availability). The per-tree base
    case is the PR-5 Burg DP: candidates are the minimum-cover-cost
    variants from the shared table, and ties break toward the earlier
    variant so [Tree]-mode choices are reproduced whenever nothing is
    gained. *)

exception No_cover of Ir.Tree.t
(** No candidate variant of the tree is coverable by the grammar. *)

type counters = {
  mutable cuts : int;  (** shared subtrees materialized into scratch cells *)
  mutable cut_reuses : int;
      (** occurrences served by a cut beyond its definition *)
}

val fresh_counters : unit -> counters

val lower_run :
  machine:Target.Machine.t ->
  matcher:Burg.Matcher.t ->
  variants:(Ir.Hashcons.h -> Ir.Hashcons.h list) ->
  lvn_counters:Lvn.counters ->
  counters:counters ->
  note_cover:(cost:int -> tried:int -> unit) ->
  rewrite_for:
    (Ir.Prog.stmt -> Target.Instr.operand -> Target.Instr.operand) ->
  Target.Machine.ctx ->
  Ir.Prog.stmt list ->
  Target.Instr.t list
(** Lower one maximal straight-line statement run. [variants] generates a
    tree's candidate variants; selection-stats accounting lives inside it,
    and it is invoked once per distinct canonical tree per run. At most 12
    minimum-cost candidates per statement are trial-emitted. [rewrite_for]
    is the per-statement addressing hook (it may emit address-setup
    instructions into the context; they are drained and prepended, exactly
    as in [Tree]-mode lowering). Emission happens through context
    snapshots, so the committed program's virtual-register numbering
    matches a single straight emission. Raises {!No_cover} when a tree has
    no coverable variant. *)
