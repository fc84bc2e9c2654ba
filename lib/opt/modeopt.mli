(** Mode-change minimization (§3.3, Liao: "residual control").

    Instructions carry mode requirements (e.g. the C25's saturating
    arithmetic needs [ovm]=1, plain arithmetic [ovm]=0). The pass inserts
    mode-changing instructions so every requirement is met at run time.

    Two strategies:
    - [Lazy] (RECORD): track the statically known mode through the code and
      change it only when a requirement differs.
    - [Naive] (conventional compiler): set the mode before every requiring
      instruction, unconditionally.

    The knowledge is [Target.Modes], the one mode analysis, which the
    compiled simulator ([Sim.Compile]) hoists its mode checks with too: a
    loop body is compiled against its entry knowledge when one trip gives
    that knowledge back, otherwise against an unknown state, and a bare
    mode-changing opcode (one [mode_change] emits, without a [mode_set])
    forgets everything. *)

type strategy = Lazy | Naive

val run : strategy:strategy -> Target.Machine.t -> Target.Asm.item list
  -> Target.Asm.item list
(** Inserts mode changes. The input must not already satisfy requirements by
    accident — the pass assumes nothing and proves every requirement. *)

val changes_inserted : Target.Asm.item list -> int
(** Number of mode-setting instructions in the code (reporting). *)

val verify : Target.Machine.t -> Target.Asm.item list -> (unit, string) result
(** Checks with [Target.Modes] that every mode requirement is known to hold
    where it is made, a loop body against its entry knowledge as [run]
    compiles it.  Every requirement it proves costs the compiled simulator
    no run-time check. *)
