(** Instruction-set simulator.

    Executes structured assembly against a machine's semantics, counting
    cycles: one instruction costs its [cycles] field, a packed parallel word
    costs one cycle, a loop costs its body on every iteration.

    Two engines share one definition of the instruction semantics
    ([Target.Machine.t.semantics]): the reference interpreter walks the
    assembly tree re-dispatching per executed instruction, while the
    compiled engine ({!Compile}) pre-translates the program to OCaml
    closures once and runs those.  Both produce identical outcomes —
    state, cycles, and raised errors — which the differential suite
    asserts.

    The simulator also acts as a dynamic checker: an instruction whose mode
    requirement is not met by the current machine state aborts the run —
    catching mode-minimization bugs instead of silently mis-executing.

    Both engines run on a machine state made two ways, through the same
    code.  {!run} makes a state of its own, of exactly the layout's size,
    and returns it in the outcome for inspection.  {!simulate}, the path
    of every compile-and-simulate job, runs on the calling domain's spare
    data memory ([Target.Mstate.borrow]) and returns only the outputs it
    read before that memory went back, so a job allocates no data image. *)

module Compile : module type of Compile
(** the closure translator; use directly to amortize translation across
    many runs of one program *)

exception Mode_violation of string
exception Exec_error of string

type outcome = Compile.outcome = {
  cycles : int;
  state : Target.Mstate.t;  (** final machine state, for inspection *)
}

type engine =
  | Interp  (** reference tree-walking interpreter *)
  | Compiled  (** translate to closures, then execute (default) *)

val run :
  ?width:int ->
  ?engine:engine ->
  Target.Machine.t ->
  layout:Target.Layout.t ->
  inputs:(string * int array) list ->
  Target.Asm.t ->
  outcome
(** Fresh machine state of its own, inputs written to memory, program
    executed. [engine] defaults to [Compiled]. *)

val outputs : outcome -> Ir.Prog.t -> (string * int array) list
(** Reads the program's output variables from the final state. *)

val simulate :
  ?width:int ->
  ?engine:engine ->
  Target.Machine.t ->
  layout:Target.Layout.t ->
  inputs:(string * int array) list ->
  Target.Asm.t ->
  Ir.Prog.t ->
  (string * int array) list * int
(** [simulate machine ~layout ~inputs asm prog] is {!run} followed by
    {!outputs} for [prog]: the outputs and the cycle count, with the same
    results and the same exceptions, but on a state borrowed from the
    calling domain, which does not escape. *)
