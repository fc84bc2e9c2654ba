(** Compiled simulation: translate structured assembly once into OCaml
    closures, then execute the resulting plan many times.

    The translator specializes each instruction on its opcode and
    addressing modes, applies post-modifies at the operand where nothing
    else in the instruction names the register, compiles the program and
    each loop body once into one closure that calls its steps directly,
    hoists statically-decidable mode checks, and counts cycles statically.
    A plan's observable behaviour — final state, cycle count, and raised
    errors — is identical to the interpretive engine's
    ([Sim.run ~engine:Interp]); the differential suite ([test_sim_diff.ml])
    enforces this.

    Mode knowledge comes from [Target.Modes], the same analysis that
    [Opt.Modeopt] places and verifies mode changes with, so a requirement
    that [Opt.Modeopt.verify] proves costs nothing at run time.  One
    caveat: the analysis assumes the only opcodes whose semantics write
    machine modes are the ones the machine's [mode_change] emits.  All
    bundled machines satisfy this; a machine violating it would be caught
    by the differential suite.

    Plans are immutable after translation and safe to share across
    domains: every {!run} builds a fresh machine state. *)

exception Mode_violation of string
exception Exec_error of string

type outcome = { cycles : int; state : Target.Mstate.t }

type step = Target.Mstate.t -> unit
(** one translated instruction (or fused loop): mode check, semantics,
    post-modify boundary *)

type plan
(** a translated program, bound to the machine and layout it was prepared
    against *)

val prepare :
  ?width:int -> Target.Machine.t -> layout:Target.Layout.t -> Target.Asm.t -> plan
(** One-pass translation.  [width] is the memory word width (default 16),
    matching [Sim.run]. *)

val run : plan -> inputs:(string * int array) list -> outcome
(** Fresh machine state, inputs written to memory, plan executed. A long
    loop polls the calling domain's {!Ir.Deadline} between chunks of trips
    and raises [Ir.Deadline.Expired] once it has passed. *)
