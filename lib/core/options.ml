type selection = Optimal_variants | Naive_macro

type selection_mode = Tree | Dag

type agu_strategy = Streams | Materialize_ivar

type t = {
  selection : selection;
  selection_mode : selection_mode;
  matcher : Burg.Matcher.engine;
  variant_limit : int;
  algebra_rules : Ir.Algebra.rule list;
  cse : bool;
  peephole : bool;
  mode_strategy : Opt.Modeopt.strategy;
  agu : agu_strategy;
  compaction : bool;
  membank : bool;
  unroll_limit : int;
}

let record_ =
  {
    selection = Optimal_variants;
    selection_mode = Tree;
    matcher = Burg.Matcher.Table;
    (* 512, not 64: with hash-consed variants and an id-keyed shared DP
       table, matching a variant costs O(new nodes), so the deeper closure
       is cheaper than the old limit-64 enumeration was.  Variant sets are
       prefix-stable in the limit, so covers can only improve. *)
    variant_limit = 512;
    algebra_rules = Ir.Algebra.default_rules;
    cse = true;
    peephole = true;
    mode_strategy = Opt.Modeopt.Lazy;
    agu = Streams;
    compaction = true;
    membank = true;
    unroll_limit = 0;
  }

let conventional =
  {
    selection = Naive_macro;
    selection_mode = Tree;
    matcher = Burg.Matcher.Table;
    variant_limit = 1;
    algebra_rules = [];
    cse = false;
    peephole = false;
    mode_strategy = Opt.Modeopt.Naive;
    agu = Materialize_ivar;
    compaction = false;
    membank = false;
    unroll_limit = 0;
  }

let with_folding t =
  { t with algebra_rules = Ir.Algebra.Fold :: t.algebra_rules }

let with_unrolling limit t = { t with unroll_limit = limit }

let with_selection_mode mode t = { t with selection_mode = mode }

let with_matcher engine t = { t with matcher = engine }

(* ---- Stable fingerprint --------------------------------------------------- *)

let selection_name = function
  | Optimal_variants -> "optimal-variants"
  | Naive_macro -> "naive-macro"

let selection_modes = [ ("tree", Tree); ("dag", Dag) ]

let selection_mode_name mode =
  fst (List.find (fun (_, m) -> m = mode) selection_modes)

let selection_mode_of_string name = List.assoc_opt name selection_modes

let agu_name = function
  | Streams -> "streams"
  | Materialize_ivar -> "materialize-ivar"

let rule_name = function
  | Ir.Algebra.Commute -> "commute"
  | Ir.Algebra.Assoc -> "assoc"
  | Ir.Algebra.Mul_to_shift -> "mul-to-shift"
  | Ir.Algebra.Fold -> "fold"

let mode_strategy_name = function
  | Opt.Modeopt.Lazy -> "lazy"
  | Opt.Modeopt.Naive -> "naive"

(* Every field, by name, in declaration order.  This is both the
   human-readable fingerprint (fuzz reproduce lines, JSON provenance) and
   the cache-key substrate: two option records render equal exactly when
   they are structurally equal, with no [Hashtbl.hash] anywhere near the
   rule list. *)
let to_string t =
  String.concat ","
    [
      "selection=" ^ selection_name t.selection;
      "selection-mode=" ^ selection_mode_name t.selection_mode;
      "matcher=" ^ Burg.Matcher.engine_name t.matcher;
      "variant-limit=" ^ string_of_int t.variant_limit;
      "algebra=" ^ String.concat "+" (List.map rule_name t.algebra_rules);
      "cse=" ^ string_of_bool t.cse;
      "peephole=" ^ string_of_bool t.peephole;
      "modes=" ^ mode_strategy_name t.mode_strategy;
      "agu=" ^ agu_name t.agu;
      "compaction=" ^ string_of_bool t.compaction;
      "membank=" ^ string_of_bool t.membank;
      "unroll=" ^ string_of_int t.unroll_limit;
    ]

let digest t = Digest.to_hex (Digest.string (to_string t))
