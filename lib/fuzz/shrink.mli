(** Greedy structural shrinking of failing cases.

    Given a predicate that re-runs the oracle, [minimize] repeatedly applies
    the first single-step simplification that keeps the case failing —
    dropping statements and loops, reducing trip counts, inlining
    single-iteration loops, replacing subtrees by their children or by
    constants, halving constants, shrinking array declarations, and zeroing
    inputs — until no step applies. The result is a locally minimal
    counterexample that still validates ({!Ir.Prog.validate}). *)

val case_variants : Gen.case -> Gen.case list
(** One-step simplifications of a whole case: every one-step structural
    simplification of the body, most aggressive first, plus
    declaration-size shrinks (with their inputs truncated to match) and
    input-value simplifications (zeroing, then halving). *)

val minimize : still_fails:(Gen.case -> bool) -> Gen.case -> Gen.case
(** Greedy fixpoint: while some validating variant still fails, descend into
    it. [still_fails] must be true of the input case for the result to be
    meaningful; the input is returned unchanged when nothing smaller fails. *)
