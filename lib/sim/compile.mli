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
    domains: a run's mutable state is the machine state it is given.
    {!run} builds a fresh one of its own, of exactly the layout's size,
    which its outcome returns; [Sim.simulate] runs {!exec} on a state
    borrowed from the calling domain ([Target.Mstate.borrow]) and reads the
    outputs before the memory goes back. *)

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

val exec : plan -> inputs:(string * int array) list -> Target.Mstate.t -> int
(** [exec plan ~inputs st] writes the inputs into [st] and executes the
    plan on it; returns the cycle count. [st] must be fresh, made on the
    plan's layout with the machine's modes ([Target.Mstate.create] or
    [Target.Mstate.borrow]); a state made on another layout is an
    [Invalid_argument]. A long loop polls the calling domain's
    {!Ir.Deadline} between chunks of trips and raises
    [Ir.Deadline.Expired] once it has passed. *)

val run : plan -> inputs:(string * int array) list -> outcome
(** {!exec} on a fresh machine state of its own, which the outcome
    returns. *)
