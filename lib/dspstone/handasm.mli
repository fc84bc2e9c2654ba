(** Hand-written TI-C25 assembly for the ten DSPStone kernels — the "100%"
    reference of the paper's Table 1.

    Each routine is written the way a DSP programmer would: T-register
    reuse across statements, RPT/MAC repeat blocks for inner products, DMOV
    for delay-line state, descending address registers for convolution.
    Every routine is validated against the reference interpreter by the
    test suite. *)

val find : string -> Target.Asm.t
(** Hand assembly for the named kernel. @raise Not_found *)

val layout_for : Kernels.t -> Target.Layout.t
(** The memory layout the hand code assumes (declaration order, plus the
    kernel's own scratch variables). *)
