(** Compiled simulation: translate structured assembly once into OCaml
    closures, then execute the resulting plan many times.

    The translator specializes each instruction on its opcode and
    addressing modes, fuses straight-line regions into flat step arrays,
    compiles loop bodies once, hoists statically-decidable mode checks, and
    counts cycles statically.  A plan's observable behaviour — final state,
    cycle count, and raised errors — is identical to the interpretive
    engine's ([Sim.run ~engine:Interp]); the differential suite
    ([test_sim_diff.ml]) enforces this.

    One caveat on mode tracking: static hoisting assumes the only opcodes
    whose semantics write machine modes are the ones the machine's
    [mode_change] emits.  All bundled machines satisfy this; a machine
    violating it would be caught by the differential suite.

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
    loop polls the calling domain's {!Deadline} between chunks of trips
    and raises [Deadline.Expired] once it has passed. *)

val static_cycles : plan -> int
(** The run's cycle cost, known at translation time (execution never
    branches on data). *)
