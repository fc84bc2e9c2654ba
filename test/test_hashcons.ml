(* Tests for the hash-consed IR layer and the sharing it buys downstream:
   interning invariants, variant enumeration vs a structural reference
   implementation, matcher memo sharing, and pipeline selection stats. *)

let tree = Alcotest.testable Ir.Tree.pp Ir.Tree.equal

(* ---- Interning invariants ---------------------------------------------- *)

let test_intern_canonical () =
  let mk () = Ir.Tree.(var "x" + (var "y" * const 3)) in
  let h1 = Ir.Hashcons.intern (mk ()) and h2 = Ir.Hashcons.intern (mk ()) in
  Alcotest.(check bool)
    "equal trees intern to the same node" true
    (Ir.Hashcons.node h1 == Ir.Hashcons.node h2);
  Alcotest.(check int) "and the same id" (Ir.Hashcons.id h1)
    (Ir.Hashcons.id h2);
  let h3 = Ir.Hashcons.intern Ir.Tree.(var "y" + (var "x" * const 3)) in
  Alcotest.(check bool)
    "different trees get different ids" false
    (Ir.Hashcons.id h1 = Ir.Hashcons.id h3)

let test_intern_preserves_structure () =
  let t = Ir.Tree.(neg (var "a") + (const 2 * (var "a" + var "b"))) in
  Alcotest.check tree "canonical node is structurally the input" t
    (Ir.Hashcons.node (Ir.Hashcons.intern t))

let test_smart_constructors_agree () =
  let open Ir.Hashcons in
  let viaconstructors = binop Ir.Op.Add (var "x") (unop Ir.Op.Neg (const 4)) in
  let viaintern = intern Ir.Tree.(var "x" + neg (const 4)) in
  Alcotest.(check bool)
    "smart constructors and intern meet at one node" true
    (node viaconstructors == node viaintern)

let test_subtree_sharing () =
  let sub = Ir.Tree.(var "p" * var "q") in
  let h1 = Ir.Hashcons.intern Ir.Tree.(sub + const 1) in
  let h2 = Ir.Hashcons.intern Ir.Tree.(const 2 - sub) in
  let kid h i = h.Ir.Hashcons.kids.(i) in
  Alcotest.(check bool)
    "shared subtree is one canonical node across parents" true
    (Ir.Hashcons.node (kid h1 0) == Ir.Hashcons.node (kid h2 1))

let test_handle_size () =
  let t = Ir.Tree.(var "x" + (var "y" * const 3)) in
  Alcotest.(check int) "handle size matches Tree.size" (Ir.Tree.size t)
    (Ir.Hashcons.intern t).Ir.Hashcons.size

(* Shard and slot indices must come from disjoint bits of the mixing
   hash: were both the low bits, each shard's keys would share one home
   slot in 64, and linear probing would pile them into clusters.  After a
   clear, 20,000 interior nodes leave every shard's table about 30% full:
   the longest probe run is then 9-12 slots with disjoint bits, whatever
   ids the suite has minted before, and 26-28 with shared bits. *)
let test_chains_stay_short () =
  Ir.Hashcons.clear ();
  let x = Ir.Hashcons.var "chain_probe_x" in
  for i = 0 to 9_999 do
    let k = Ir.Hashcons.const (1_000_000 + i) in
    ignore (Ir.Hashcons.binop Ir.Op.Add k x);
    ignore (Ir.Hashcons.unop Ir.Op.Neg k)
  done;
  let s = Ir.Hashcons.stats () in
  Alcotest.(check int) "20k interior nodes, 10k constants and x" 30_001
    s.Ir.Hashcons.live;
  let longest = Ir.Hashcons.max_chain () in
  Alcotest.(check bool)
    (Printf.sprintf "longest probe run %d <= 18" longest)
    true (longest <= 18)

let test_ids_not_reused_after_clear () =
  let t = Ir.Tree.(var "fresh_clear_probe" + const 7) in
  let before = Ir.Hashcons.id (Ir.Hashcons.intern t) in
  Ir.Hashcons.clear ();
  let after = Ir.Hashcons.id (Ir.Hashcons.intern t) in
  Alcotest.(check bool)
    "ids are monotonic across clear (never reused)" true (after > before)

let gen_tree =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun k -> Ir.Tree.Const k) (int_range (-8) 8);
        map Ir.Tree.var (oneofl [ "x"; "y"; "z" ]);
      ]
  in
  let node self n =
    let sub = self (n / 2) in
    oneof
      [
        leaf;
        map2
          (fun op (a, b) -> Ir.Tree.Binop (op, a, b))
          (oneofl Ir.Op.[ Add; Sub; Mul; And; Or; Xor ])
          (pair sub sub);
        map (fun a -> Ir.Tree.Unop (Ir.Op.Neg, a)) sub;
      ]
  in
  sized_size (int_bound 5) (fix (fun self n -> if n = 0 then leaf else node self n))

let arb_tree = QCheck.make ~print:Ir.Tree.to_string gen_tree

let prop_intern_physical =
  QCheck.Test.make ~name:"structural equality iff shared canonical node"
    ~count:300
    QCheck.(pair arb_tree arb_tree)
    (fun (a, b) ->
      let ha = Ir.Hashcons.intern a and hb = Ir.Hashcons.intern b in
      Ir.Tree.equal a b = (Ir.Hashcons.node ha == Ir.Hashcons.node hb))

(* ---- Variants vs a structural reference implementation ------------------ *)

(* Pre-hashcons reference: one-step rewrites and a BFS closure computed on
   plain trees with structural dedup, mirroring the seed compiler. Kept
   deliberately naive — it is the spec the fast path must agree with. *)

let is_pow2 k = k > 0 && k land (k - 1) = 0

let log2 k =
  let rec go n k = if k <= 1 then n else go (n + 1) (k lsr 1) in
  go 0 k

let rec ref_rewrites rules t =
  let open Ir in
  let has r = List.mem r rules in
  let root =
    (match t with
    | Tree.Binop (op, a, b) when has Algebra.Commute && Op.commutative op ->
      [ Tree.Binop (op, b, a) ]
    | _ -> [])
    @ (match t with
      | Tree.Binop (op, Tree.Binop (op', a, b), c)
        when has Algebra.Assoc && op = op' && Op.associative op ->
        [ Tree.Binop (op, a, Tree.Binop (op, b, c)) ]
      | _ -> [])
    @ (match t with
      | Tree.Binop (op, a, Tree.Binop (op', b, c))
        when has Algebra.Assoc && op = op' && Op.associative op ->
        [ Tree.Binop (op, Tree.Binop (op, a, b), c) ]
      | _ -> [])
    @
    match t with
    | Tree.Binop (Op.Mul, a, Tree.Const k) when has Algebra.Mul_to_shift && is_pow2 k
      ->
      [ Tree.Binop (Op.Shl, a, Tree.Const (log2 k)) ]
    | Tree.Binop (Op.Mul, Tree.Const k, b) when has Algebra.Mul_to_shift && is_pow2 k
      ->
      [ Tree.Binop (Op.Shl, b, Tree.Const (log2 k)) ]
    | Tree.Binop (Op.Shl, a, Tree.Const k)
      when has Algebra.Mul_to_shift && k >= 0 && k < 15 ->
      [ Tree.Binop (Op.Mul, a, Tree.Const (1 lsl k)) ]
    | _ -> []
  in
  let below =
    match t with
    | Ir.Tree.Const _ | Ir.Tree.Ref _ -> []
    | Ir.Tree.Unop (op, a) ->
      List.map (fun a' -> Ir.Tree.Unop (op, a')) (ref_rewrites rules a)
    | Ir.Tree.Binop (op, a, b) ->
      List.map (fun a' -> Ir.Tree.Binop (op, a', b)) (ref_rewrites rules a)
      @ List.map (fun b' -> Ir.Tree.Binop (op, a, b')) (ref_rewrites rules b)
  in
  root @ below

let ref_variants ~rules ~limit t =
  let seen = ref [ t ] in
  let mem t = List.exists (Ir.Tree.equal t) !seen in
  let queue = Queue.create () in
  Queue.add t queue;
  let n = ref 1 in
  while (not (Queue.is_empty queue)) && !n < limit do
    let cur = Queue.pop queue in
    List.iter
      (fun t' ->
        if (not (mem t')) && !n < limit then begin
          seen := t' :: !seen;
          incr n;
          Queue.add t' queue
        end)
      (ref_rewrites rules cur)
  done;
  List.rev !seen

let sorted_strings ts = List.sort compare (List.map Ir.Tree.to_string ts)

let variant_limit = 4096

(* Where the reference saturates below the limit, the closure is complete
   and both sides must return the same set.  Generated trees reach size 15,
   though, and a full depth-3 [Add] tree has over 200,000 variants: there
   the limit truncates both closures, and which variants survive depends on
   rewrite order, which the fast path ([Algebra.root_rewrites]) and the
   reference choose differently.  A truncated closure is held to what does
   hold: both sides stop at exactly [limit] distinct variants, and every
   fast-path variant computes what the input computes. *)
let compare_closures t =
  let rules = Ir.Algebra.default_rules and limit = variant_limit in
  let fast = Ir.Algebra.variants ~rules ~limit t in
  let reference = sorted_strings (ref_variants ~rules ~limit t) in
  let distinct l = List.length (List.sort_uniq compare l) in
  if List.length reference < limit then
    `Saturated (sorted_strings fast = reference)
  else
    `Truncated
      (distinct reference = limit
      && distinct (sorted_strings fast) = limit
      && List.for_all (fun v -> Ir.Algebra.equivalent t v) fast)

let prop_variants_match_reference =
  QCheck.Test.make
    ~name:"hash-consed variant closure equals the structural reference"
    ~count:200 arb_tree (fun t ->
      match compare_closures t with `Saturated ok | `Truncated ok -> ok)

let test_truncated_closures () =
  List.iter
    (fun t ->
      Alcotest.(check bool)
        (Ir.Tree.to_string t ^ " truncates at the limit, equivalently")
        true
        (compare_closures t = `Truncated true))
    Ir.Tree.
      [
        (* The generator's largest shape: a full depth-3 tree, size 15. *)
        ((var "x" + var "y") + (var "z" + const 1))
        + ((const 2 + var "x") + (var "y" + const (-3)));
        (* The shrunk counterexample the exact comparison failed on. *)
        var "y" * neg (const 2)
        * (Binop (Ir.Op.And, const (-2), const 5) * (const 2 * const (-8)));
      ]

let prop_variants_prefix_stable =
  QCheck.Test.make
    ~name:"variants at a lower limit are a prefix of a higher limit"
    ~count:200 arb_tree (fun t ->
      let lo = Ir.Algebra.variants ~limit:8 t in
      let hi = Ir.Algebra.variants ~limit:64 t in
      let rec is_prefix = function
        | [], _ -> true
        | _, [] -> false
        | a :: la, b :: lb -> Ir.Tree.equal a b && is_prefix (la, lb)
      in
      is_prefix (lo, hi))

let test_variants_counters () =
  let c = Ir.Algebra.fresh_counters () in
  let t = Ir.Tree.(var "a" + (var "b" + var "c")) in
  let vs = Ir.Algebra.variants ~counters:c ~limit:64 t in
  Alcotest.(check int) "explored counts the closure" (List.length vs)
    c.Ir.Algebra.explored;
  Alcotest.(check bool) "revisits are dedup hits" true (c.Ir.Algebra.dedup_hits > 0);
  let c2 = Ir.Algebra.fresh_counters () in
  let vs2 = Ir.Algebra.variants ~counters:c2 ~limit:2 t in
  Alcotest.(check int) "limit caps the closure" 2 (List.length vs2);
  Alcotest.(check bool) "overflow counts as pruned" true (c2.Ir.Algebra.pruned > 0)

(* ---- What a search keeps ------------------------------------------------ *)

(* The statement trees variants.golden pins: the DSPStone kernels' and the
   seed-42 [sized 8] fuzz corpus's. *)
let golden_trees =
  lazy
    (let of_prog p =
       List.map (fun (s : Ir.Prog.stmt) -> s.src) (Ir.Prog.stmts p)
     in
     List.concat_map
       (fun k -> of_prog (Dspstone.Kernels.prog k))
       (Dspstone.Kernels.all @ Dspstone.Kernels.extended)
     @ List.concat_map
         (fun (c : Fuzz.Gen.case) -> of_prog c.prog)
         (Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 8) ~seed:42 ~count:200 ()))

let state_key name =
  match Driver.Registry.find_machine name with
  | Ok m -> Burg.Matcher.state_key (Driver.Registry.matcher_for m)
  | Error e -> Alcotest.fail e

(* A search's output: the variants' ids and the four counters. *)
let search ?prune_key ~limit h =
  let c = Ir.Algebra.fresh_counters () in
  let vs = Ir.Algebra.hvariants ~limit ~counters:c ?prune_key h in
  ( List.map Ir.Hashcons.id vs,
    Ir.Algebra.(c.explored, c.pruned, c.dedup_hits, c.state_prunes) )

(* A spawned domain starts with an empty search table. *)
let on_fresh_domain f = Domain.join (Domain.spawn f)

(* Each tree searched under tic25's prune key on a fresh domain equals the
   same search on a domain that has just searched it under dsp56's: one
   stored search serves every prune key. *)
let test_fresh_equals_warm () =
  let trees = Lazy.force golden_trees in
  let hs = List.map Ir.Hashcons.intern trees in
  let tic25 = state_key "tic25" and dsp56 = state_key "dsp56" in
  let cold =
    on_fresh_domain (fun () -> List.map (search ~prune_key:tic25 ~limit:512) hs)
  in
  let warm =
    on_fresh_domain (fun () ->
        List.map
          (fun h ->
            ignore (search ~prune_key:dsp56 ~limit:512 h);
            search ~prune_key:tic25 ~limit:512 h)
          hs)
  in
  List.iteri
    (fun i (t, (c, w)) ->
      if c <> w then
        Alcotest.failf "tree %d, %s: the warm search differs from the cold one"
          i (Ir.Tree.to_string t))
    (List.combine trees (List.combine cold warm));
  Alcotest.(check int) "every tree searched" 1357 (List.length cold)

(* A search the deadline stops stores nothing and leaves the counters
   alone; the next search of the tree is complete. *)
let test_expired_search_keeps_nothing () =
  let v i = Ir.Tree.var (Printf.sprintf "expiring%d" i) in
  let h =
    Ir.Hashcons.intern
      Ir.Tree.(((v 0 + v 1) + (v 2 + v 3)) + ((v 4 + v 5) + (v 6 + v 7)))
  in
  (* Tens of milliseconds of search: longer than the deadlines below. *)
  let limit = 30_000 in
  let misses () = (Ir.Hashcons.stats ()).Ir.Hashcons.misses in
  let after =
    on_fresh_domain (fun () ->
        (* Until a deadline expires inside the search, not at [within]'s
           own first poll, which would leave nothing interned. *)
        let rec expire = function
          | [] -> Alcotest.fail "no deadline expired inside the search"
          | seconds :: longer -> (
            let before = misses () in
            let c = Ir.Algebra.fresh_counters () in
            match
              Ir.Deadline.within seconds (fun () ->
                  Ir.Algebra.hvariants ~limit ~counters:c h)
            with
            | _ -> Alcotest.fail "the search finished inside its deadline"
            | exception Ir.Deadline.Expired ->
              if misses () = before then expire longer
              else
                Alcotest.(check bool)
                  "an expired search counts nothing" true
                  (c = Ir.Algebra.fresh_counters ()))
        in
        expire [ 0.002; 0.01; 0.05 ];
        Alcotest.(check int)
          "an expired search is not kept" 0
          (Ir.Algebra.searches_held ());
        let after = search ~limit h in
        Alcotest.(check int)
          "the finished search is kept" 1
          (Ir.Algebra.searches_held ());
        after)
  in
  let reference = on_fresh_domain (fun () -> search ~limit h) in
  Alcotest.(check int) "the full closure" limit (List.length (fst after));
  Alcotest.(check bool) "list and counters of a fresh search" true
    (after = reference)

(* The table holds the last [max_searches] searches: a kept one is
   answered without interning anything, a dropped one runs again. *)
let test_search_table_capped () =
  let cap = Ir.Algebra.max_searches in
  let hs =
    List.init (cap + 50) (fun i ->
        Ir.Hashcons.intern Ir.Tree.(var "capped" + const i))
  in
  let probes () =
    let s = Ir.Hashcons.stats () in
    s.Ir.Hashcons.hits + s.Ir.Hashcons.misses
  in
  on_fresh_domain (fun () ->
      List.iteri
        (fun i h ->
          ignore (Ir.Algebra.hvariants ~limit:8 h);
          let held = Ir.Algebra.searches_held () in
          if held <> min (i + 1) cap then
            Alcotest.failf "%d searches: %d kept, not %d" (i + 1) held
              (min (i + 1) cap))
        hs;
      let p0 = probes () in
      ignore (Ir.Algebra.hvariants ~limit:8 (List.nth hs (cap + 49)));
      Alcotest.(check int) "a kept search interns nothing" p0 (probes ());
      ignore (Ir.Algebra.hvariants ~limit:8 (List.hd hs));
      Alcotest.(check bool) "a dropped search runs again" true (probes () > p0))

(* ---- Matcher sharing across variants ------------------------------------ *)

let test_matcher_shares_across_variants () =
  let m = Burg.Matcher.create Target.Tic25.machine.Target.Machine.grammar in
  let h =
    Ir.Hashcons.intern
      Ir.Tree.(var "u" + ((var "v" * var "w") + (var "u" * const 2)))
  in
  let hvs = Ir.Algebra.hvariants ~limit:64 h in
  List.iter (fun hv -> ignore (Burg.Matcher.best_h m hv)) hvs;
  let c = Burg.Matcher.counters m in
  let total_nodes =
    List.fold_left (fun acc hv -> acc + hv.Ir.Hashcons.size) 0 hvs
  in
  Alcotest.(check bool) "memo fires across variants" true
    (c.Burg.Matcher.memo_hits > 0);
  Alcotest.(check bool)
    "distinct subtrees labelled, not variant nodes" true
    (c.Burg.Matcher.nodes_labelled < total_nodes)

let test_matcher_best_matches_variant_best () =
  (* best_of_hvariants must pick a cover no worse than matching the original
     alone, and agree with re-matching its chosen variant from scratch. *)
  let g = Target.Tic25.machine.Target.Machine.grammar in
  let m = Burg.Matcher.create g in
  let t = Ir.Tree.(const 4 * (var "x" + var "y")) in
  let h = Ir.Hashcons.intern t in
  let hvs = Ir.Algebra.hvariants ~limit:64 h in
  match (Burg.Matcher.best_of_hvariants m hvs, Burg.Matcher.best_h m h) with
  | Some (hv, cover), Some base ->
    Alcotest.(check bool) "variant cover no worse" true
      (Burg.Cover.cost cover <= Burg.Cover.cost base);
    let fresh = Burg.Matcher.create g in
    (match Burg.Matcher.best_h fresh hv with
    | Some again ->
      Alcotest.(check int) "shared-table cover cost = cold cover cost"
        (Burg.Cover.cost again) (Burg.Cover.cost cover)
    | None -> Alcotest.fail "chosen variant must still cover cold")
  | _ -> Alcotest.fail "tic25 must cover the tree"

(* ---- Selection over the Table-1 kernels --------------------------------- *)

let tic25 = Target.Tic25.machine

(* The ten Table-1 kernels compiled on tic25 in suite order, paired with
   their names, through one fresh matcher of [engine] at variant limit
   [limit] — one matcher shared across kernels, as the driver's per-target
   matcher is, so memo and automaton counters accumulate over the suite. *)
let table1 ?(mode = Record.Options.Tree) engine limit =
  let options =
    Record.Options.with_selection_mode mode
      (Record.Options.with_matcher engine
         { Record.Options.record_ with Record.Options.variant_limit = limit })
  in
  let matcher = Burg.Matcher.create ~engine tic25.Target.Machine.grammar in
  List.map
    (fun (k : Dspstone.Kernels.t) ->
      ( k.Dspstone.Kernels.name,
        Record.Pipeline.compile ~options ~matcher tic25
          (Dspstone.Kernels.prog k) ))
    Dspstone.Kernels.all

let limits = [ 64; 128; 256; 512 ]

(* Rows are deterministic (every counter is per matcher or per compile),
   so each (engine, limit) row is compiled once and shared by the tests. *)
let table1_row =
  let rows =
    lazy
      (List.concat_map
         (fun engine ->
           List.map (fun limit -> ((engine, limit), table1 engine limit)) limits)
         Burg.Matcher.[ Table; Dp ])
  in
  fun engine limit -> List.assoc (engine, limit) (Lazy.force rows)

let words row = List.map (fun (k, c) -> (k, Record.Pipeline.words c)) row

let per_kernel f row =
  List.map (fun (k, c) -> (k, f c.Record.Pipeline.selection)) row

let sum pairs = List.fold_left (fun acc (_, n) -> acc + n) 0 pairs
let total f row = sum (per_kernel f row)

(* ---- Pipeline selection stats ------------------------------------------- *)

let test_pipeline_selection_stats () =
  let prog = Dspstone.Kernels.prog (Dspstone.Kernels.find "dot_product") in
  let c = Record.Pipeline.compile tic25 prog in
  let s = c.Record.Pipeline.selection in
  Alcotest.(check bool) "labelling sub-linear in variant nodes" true
    (s.Record.Pipeline.sel_nodes_labelled < s.Record.Pipeline.sel_variant_nodes);
  List.iter
    (fun (k, c) ->
      let s = c.Record.Pipeline.selection in
      Alcotest.(check bool) (k ^ ": trees counted") true
        (s.Record.Pipeline.sel_trees > 0);
      Alcotest.(check bool) (k ^ ": variants counted") true
        (s.Record.Pipeline.sel_variants >= s.Record.Pipeline.sel_trees))
    (table1_row Burg.Matcher.Table 512);
  (* Over the whole Table-1 variant space the shared memo labels each
     distinct subtree once: at most a quarter of the variant nodes.  The
     DP engine ranks the full space; the table engine's state pruning
     shrinks variant_nodes, the denominator, by design. *)
  let dp = table1_row Burg.Matcher.Dp 256 in
  let labelled = total (fun s -> s.Record.Pipeline.sel_nodes_labelled) dp in
  let nodes = total (fun s -> s.Record.Pipeline.sel_variant_nodes) dp in
  Alcotest.(check bool)
    (Printf.sprintf "dp, limit 256: %d labelled * 4 <= %d variant nodes"
       labelled nodes)
    true (labelled * 4 <= nodes)

let test_pipeline_words_no_worse_at_512 () =
  List.iter2
    (fun (k, at64) (_, at512) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: words at 512 (%d) <= words at 64 (%d)" k at512
           at64)
        true (at512 <= at64))
    (words (table1_row Burg.Matcher.Table 64))
    (words (table1_row Burg.Matcher.Table 512))

(* ---- The Table-1 selection budget --------------------------------------- *)

(* Counter relations, not wall-clock: they hold on any host. *)

let test_engines_agree_at_every_limit () =
  List.iter
    (fun limit ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "dp and table words per kernel, limit %d" limit)
        (words (table1_row Burg.Matcher.Dp limit))
        (words (table1_row Burg.Matcher.Table limit)))
    limits

let test_automaton_prunes_at_512 () =
  let table = table1_row Burg.Matcher.Table 512 in
  let dp = table1_row Burg.Matcher.Dp 512 in
  Alcotest.(check bool) "automaton built (states > 0)" true
    (List.exists
       (fun (_, n) -> n > 0)
       (per_kernel (fun s -> s.Record.Pipeline.sel_states) table));
  Alcotest.(check bool) "state-equivalence prune fires" true
    (total (fun s -> s.Record.Pipeline.sel_state_prunes) table > 0);
  let nodes = total (fun s -> s.Record.Pipeline.sel_variant_nodes) in
  Alcotest.(check bool)
    (Printf.sprintf "table ranks fewer variant nodes than dp (%d < %d)"
       (nodes table) (nodes dp))
    true
    (nodes table < nodes dp)

let test_label_table_shared_at_256 () =
  Alcotest.(check bool) "memo hits > 0" true
    (total
       (fun s -> s.Record.Pipeline.sel_memo_hits)
       (table1_row Burg.Matcher.Table 256)
    > 0)

let test_variants_no_fewer_at_512 () =
  List.iter2
    (fun (k, at64) (_, at512) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: variants at 512 (%d) >= at 64 (%d)" k at512 at64)
        true (at512 >= at64))
    (per_kernel (fun s -> s.Record.Pipeline.sel_variants)
       (table1_row Burg.Matcher.Table 64))
    (per_kernel (fun s -> s.Record.Pipeline.sel_variants)
       (table1_row Burg.Matcher.Table 512))

let test_dag_beats_tree () =
  let tree = table1_row Burg.Matcher.Table 512 in
  let dag = table1 ~mode:Record.Options.Dag Burg.Matcher.Table 512 in
  List.iter2
    (fun (k, t) (_, d) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: dag %d <= tree %d words" k d t)
        true (d <= t))
    (words tree) (words dag);
  let dag_words = sum (words dag) and tree_words = sum (words tree) in
  Alcotest.(check bool)
    (Printf.sprintf "dag total %d < tree total %d" dag_words tree_words)
    true
    (dag_words < tree_words);
  Alcotest.(check bool) "cross-tree CSE fires" true
    (total (fun s -> s.Record.Pipeline.sel_cross_tree_cse) dag > 0)

let test_registry_matcher_long_lived () =
  match Driver.Registry.find_machine "tic25" with
  | Error e -> Alcotest.fail e
  | Ok machine ->
    let m1 = Driver.Registry.matcher_for machine in
    let m2 = Driver.Registry.matcher_for machine in
    Alcotest.(check bool) "one matcher per target" true (m1 == m2)

let suites =
  [
    ( "hashcons",
      [
        Alcotest.test_case "intern canonical" `Quick test_intern_canonical;
        Alcotest.test_case "intern preserves structure" `Quick
          test_intern_preserves_structure;
        Alcotest.test_case "smart constructors agree" `Quick
          test_smart_constructors_agree;
        Alcotest.test_case "subtree sharing" `Quick test_subtree_sharing;
        Alcotest.test_case "handle size" `Quick test_handle_size;
        Alcotest.test_case "ids survive clear" `Quick
          test_ids_not_reused_after_clear;
        Alcotest.test_case "bucket chains stay short" `Quick
          test_chains_stay_short;
        QCheck_alcotest.to_alcotest prop_intern_physical;
      ] );
    ( "hashcons-variants",
      [
        QCheck_alcotest.to_alcotest prop_variants_match_reference;
        Alcotest.test_case "truncated closures" `Quick test_truncated_closures;
        QCheck_alcotest.to_alcotest prop_variants_prefix_stable;
        Alcotest.test_case "variant counters" `Quick test_variants_counters;
        Alcotest.test_case "fresh and warm searches agree" `Quick
          test_fresh_equals_warm;
        Alcotest.test_case "an expired search keeps nothing" `Quick
          test_expired_search_keeps_nothing;
        Alcotest.test_case "the search table keeps its cap" `Quick
          test_search_table_capped;
      ] );
    ( "hashcons-matcher",
      [
        Alcotest.test_case "DP table shared across variants" `Quick
          test_matcher_shares_across_variants;
        Alcotest.test_case "variant best is sound" `Quick
          test_matcher_best_matches_variant_best;
        Alcotest.test_case "pipeline selection stats" `Quick
          test_pipeline_selection_stats;
        Alcotest.test_case "words no worse at 512" `Quick
          test_pipeline_words_no_worse_at_512;
        Alcotest.test_case "registry matcher long-lived" `Quick
          test_registry_matcher_long_lived;
      ] );
    ( "selection.table1",
      [
        Alcotest.test_case "dp and table agree at every limit" `Quick
          test_engines_agree_at_every_limit;
        Alcotest.test_case "automaton prunes at 512" `Quick
          test_automaton_prunes_at_512;
        Alcotest.test_case "label table shared at 256" `Quick
          test_label_table_shared_at_256;
        Alcotest.test_case "variants no fewer at 512" `Quick
          test_variants_no_fewer_at_512;
        Alcotest.test_case "dag never loses to tree" `Quick test_dag_beats_tree;
      ] );
  ]
