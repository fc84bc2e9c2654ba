(** Local value numbering over emitted instructions, with availability
    carried across statement boundaries.

    The cross-tree half of DAG covering: tree covering emits each
    statement independently and recomputes register values the previous
    statement left behind. This pass records, per maximal straight-line
    statement run, every kept instruction that computes a pure
    single-register value, drops later instructions that would recompute
    an available value, and substitutes their destination virtual
    registers. Eliminations whose entry predates the current statement
    are the cross-tree CSE hits reported in the pipeline's selection
    stats.

    Conservative by construction: only mode-free, indirect-free,
    physical-register-free single-definition instructions are admitted;
    a kept instruction invalidates entries at register-class granularity
    (so single-register classes never carry two live values) and by
    written memory base. Register allocation downstream handles the
    stretched live ranges generically. *)

type t
(** Mutable availability state for one statement run. *)

type counters = {
  mutable eliminated : int;  (** instructions dropped *)
  mutable cross_stmt : int;
      (** eliminations whose available entry predates the statement —
          cross-tree CSE hits *)
  mutable words_saved : int;  (** code words of dropped instructions *)
}

val fresh_counters : unit -> counters

val create : unit -> t

val boundary : t -> unit
(** Mark a statement boundary: entries recorded so far count as produced
    by an earlier tree for {!counters.cross_stmt}. *)

val process : t -> counters -> Target.Instr.t list -> Target.Instr.t list
(** Scan one statement's instructions in order: apply pending
    substitutions, drop recomputations of available values, record new
    availability, and invalidate against every kept instruction. *)

val gain : t -> Target.Instr.t list -> int
(** Words {!process} would save on this list against the current state,
    without mutating it — the boundary-aware variant chooser's score. *)
