(** Address-generation-unit lowering (§3.3: "several DSPs include special
    address generation units; with these, incrementing an address register
    does not require an extra instruction or cycle").

    Every loop-carried memory access [base\[i+offset\]] is an address
    {e stream}. The pass assigns one address register per stream, loads it
    before the loop, and turns every access into an indirect access; the last
    access of a stream in the body carries the free post-increment, so the
    induction variable never needs to exist at run time. *)

exception Too_many_streams of string
(** Raised when a loop needs more address streams than the machine has
    address registers (one register is reserved for the loop counter). *)

exception Unsupported of string
(** Raised for program shapes the AGU stream model does not cover: a
    reference whose induction variable belongs to an enclosing loop (the
    stream would have to stand still across the inner loop). The pipeline
    reports this as a clean "cannot compile". *)

val lower_loop :
  Target.Machine.agu_support -> Target.Machine.ctx -> string
  -> Target.Asm.item list
  -> Target.Instr.t list * Target.Asm.item list * int
(** Rewrites the induction accesses of ONE loop body (for the given
    induction variable): returns the address-register initializations to
    place before the loop, the rewritten body, and the number of streams.
    @raise Unsupported for a reference whose induction variable belongs to
    an enclosing loop (not needed by the DSPStone kernels).
    @raise Too_many_streams when the AGU cannot cover the loop. *)
