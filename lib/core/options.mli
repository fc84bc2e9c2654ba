(** Compiler configurations.

    The same pipeline implements both the paper's RECORD compiler and the
    conventional target-specific compiler it is compared against in Table 1;
    every §3.3 optimization is an independent switch, which is what the
    ablation benchmarks toggle. *)

type selection =
  | Optimal_variants
      (** RECORD: algebraic variants of each tree, each matched, cheapest
          cover wins (§4.3.3) *)
  | Naive_macro
      (** conventional compiler: every interior node is homed to memory and
          matched alone (macro expansion) *)

type selection_mode =
  | Tree
      (** per-tree covering: the flow graph is decomposed into data-flow
          trees and each is covered independently (the paper's scheme) *)
  | Dag
      (** DAG covering over the hash-consed IR: shared subtrees detected by
          canonical id across tree boundaries are materialized at most once
          (register reuse or scratch cell), and variant choice at each tree
          is aware of the machine state left by the previous tree *)

type agu_strategy =
  | Streams  (** one auto-increment address register per access stream *)
  | Materialize_ivar
      (** the induction variable lives in memory; every access recomputes
          its address (conventional compiler) *)

type t = {
  selection : selection;
  selection_mode : selection_mode;
      (** how trees are grouped and ranked during covering; orthogonal to
          [selection], which picks the per-tree variant policy *)
  matcher : Burg.Matcher.engine;
      (** labelling engine: the table-driven BURS automaton in both
          standard configurations; [Dp] selects the on-demand DP labeller,
          the differential reference the tests compare against. Covers are
          byte-identical, but [Dp] ranks more variants (no state pruning),
          so [variants_tried] differs *)
  variant_limit : int;  (** cap on algebraic variants per tree *)
  algebra_rules : Ir.Algebra.rule list;
  cse : bool;  (** share common subexpressions across a block (Fig. 4) *)
  peephole : bool;
  mode_strategy : Opt.Modeopt.strategy;
  agu : agu_strategy;
  compaction : bool;
  membank : bool;
  unroll_limit : int;
      (** loops with at most this many iterations are fully unrolled into
          straight-line code (0 disables; disabled in both standard
          configurations — unrolling trades the code size Table 1 measures
          for cycles, so it is an explicit choice) *)
}

val record_ : t
(** The RECORD configuration. Note [algebra_rules] excludes constant folding
    ("it does not contain any standard optimization technique such as
    constant folding", §4.3.5). [variant_limit] is 512: hash-consed variant
    sets and the shared DP table ({!Burg.Matcher}) make the deeper closure
    cheaper than the pre-sharing limit of 64, and since variant sets are
    prefix-stable in the limit, covers only improve. *)

val conventional : t
(** The mid-90s target-specific C compiler stand-in: naive in every
    dimension (§3.1's 2–8x overhead). *)

val with_folding : t -> t
(** Ablation: RECORD plus constant folding. *)

val with_unrolling : int -> t -> t
(** Ablation: fully unroll loops of at most the given trip count. *)

val with_selection_mode : selection_mode -> t -> t

val with_matcher : Burg.Matcher.engine -> t -> t
(** Select the labelling engine. No CLI flag or job member sets it; the
    differential tests and embedders do. It is part of the option
    fingerprint ({!to_string}), so cached entries never cross engines: a
    cache hit replays the stored [stats], and [variants_tried] differs by
    engine. *)

val selection_modes : (string * selection_mode) list
(** Every selection mode with its spelling — ["tree"], ["dag"] — in the
    order the [--selection] flags list them. The one source of the
    spelling used by [to_string], the CLI flags, the batch protocol's
    "selection" member, and the fuzzer's reproduce lines. *)

val selection_mode_name : selection_mode -> string
(** The mode's spelling in {!selection_modes}. *)

val selection_mode_of_string : string -> selection_mode option
(** Inverse of {!selection_mode_name}; [None] for an unknown spelling. *)

val to_string : t -> string
(** Renders every field by name, in declaration order — a stable structural
    fingerprint: two option records render equal exactly when they are
    structurally equal. Used verbatim in JSON provenance and (digested) as
    part of the compilation-cache key and the fuzzer's reproduce lines. *)

val digest : t -> string
(** Hex MD5 of {!to_string}. *)
