(** Compaction of compiler-owned scratch memory cells.

    Selection and spilling allocate one "$s" cell per value serialized
    through memory; their lifetimes are short and properly nested, so after
    allocation the cells are renamed with a loop-aware linear scan.  The
    data-segment cost of scratch traffic becomes the peak number of
    simultaneously live scratch values rather than the total count.  A
    scratch cell is named [$s<n>], the way {!Target.Machine.fresh_scratch}
    names it; no other name is renamed.  Cells with equal lifetimes take
    slots in the order of their numbers.

    Cells whose lifetime straddles a loop boundary (induction-variable
    cells) are extended over the whole loop and never share storage with
    loop-local values. *)

val run : Target.Asm.t -> Target.Asm.t * (string * int) list
(** Renames every scratch cell to its compacted slot and returns the
    rewritten program together with the scratch declarations actually
    needed, in layout order (replaces {!Target.Machine.scratch_decls}). *)
