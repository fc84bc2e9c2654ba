(* Tests for the burg library: grammar validation, the dynamic-programming
   matcher (including the Fig. 4/5 pattern set), chain rules, guards, dynamic
   costs, and a brute-force optimality property. *)

let nt name = Burg.Pattern.Nonterm name

(* The pattern set of paper Fig. 4 over a tiny memory machine:
     reg <- ref              (move from memory to register)
     reg <- #                (load constant into register)
     mem <- add(mem, #)      (add immediate to memory register indirect)
     reg <- mul(#, ref)      (multiply immediate with memory direct)
     mem <- add(ref, mul(reg, reg))  (add ... addressed by product) *)
let fig4_rules =
  let open Burg in
  [
    Rule.make ~name:"load" ~lhs:"reg" ~cost:1 Pattern.Ref_any;
    Rule.make ~name:"ldc" ~lhs:"reg" ~cost:1 Pattern.Const_any;
    Rule.make ~name:"mem_reg" ~lhs:"mem" ~cost:1 (nt "reg");
    Rule.make ~name:"addi" ~lhs:"reg" ~cost:1
      (Pattern.Binop (Ir.Op.Add, nt "reg", Pattern.Const_any));
    Rule.make ~name:"muli" ~lhs:"reg" ~cost:1
      (Pattern.Binop (Ir.Op.Mul, Pattern.Const_any, nt "reg"));
    Rule.make ~name:"add" ~lhs:"reg" ~cost:2
      (Pattern.Binop (Ir.Op.Add, nt "reg", nt "reg"));
    Rule.make ~name:"mul" ~lhs:"reg" ~cost:2
      (Pattern.Binop (Ir.Op.Mul, nt "reg", nt "reg"));
  ]

let fig4 = Burg.Grammar.make ~name:"fig4" ~start:"reg" fig4_rules

let test_grammar_check_ok () =
  match Burg.Grammar.check ~start:"reg" fig4_rules with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

let test_grammar_duplicate_name () =
  let rules =
    [
      Burg.Rule.make ~name:"r" ~lhs:"a" ~cost:1 Burg.Pattern.Ref_any;
      Burg.Rule.make ~name:"r" ~lhs:"a" ~cost:1 Burg.Pattern.Const_any;
    ]
  in
  match Burg.Grammar.check ~start:"a" rules with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "duplicate rule name accepted"

let test_grammar_missing_nonterm () =
  let rules =
    [ Burg.Rule.make ~name:"r" ~lhs:"a" ~cost:1 (nt "ghost") ] in
  match Burg.Grammar.check ~start:"a" rules with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "undefined nonterminal accepted"

let test_grammar_zero_cycle () =
  let rules =
    [
      Burg.Rule.make ~name:"leaf" ~lhs:"a" ~cost:1 Burg.Pattern.Ref_any;
      Burg.Rule.make ~name:"ab" ~lhs:"b" ~cost:0 (nt "a");
      Burg.Rule.make ~name:"ba" ~lhs:"a" ~cost:0 (nt "b");
    ]
  in
  match Burg.Grammar.check ~start:"a" rules with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "zero-cost chain cycle accepted"

let test_grammar_positive_cycle_ok () =
  let rules =
    [
      Burg.Rule.make ~name:"leaf" ~lhs:"a" ~cost:1 Burg.Pattern.Ref_any;
      Burg.Rule.make ~name:"ab" ~lhs:"b" ~cost:1 (nt "a");
      Burg.Rule.make ~name:"ba" ~lhs:"a" ~cost:1 (nt "b");
    ]
  in
  match Burg.Grammar.check ~start:"a" rules with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg

(* Fig. 5: the example dfg is covered with few patterns thanks to the
   immediate forms. *)
let test_fig5_cover () =
  let m = Burg.Matcher.create fig4 in
  (* (5 + ref) covered by load+addi = 2; plain add would cost 4. *)
  let t = Ir.Tree.(var "m" + const 5) in
  match Burg.Matcher.best m t with
  | None -> Alcotest.fail "no cover"
  | Some c ->
    Alcotest.(check int) "cost" 2 (Burg.Cover.cost c);
    Alcotest.(check (list string)) "rules"
      [ "addi"; "load" ]
      (List.map (fun r -> r.Burg.Rule.name) (Burg.Cover.rules_used c))

let test_fig4_full_tree () =
  (* The Fig. 4 dfg:  ((5 * ref) + (ref * (7 + 9 ...))) approximated as
     (5 * a) + (b * 7): muli + load + (mul of load and ldc) + add. *)
  let m = Burg.Matcher.create fig4 in
  let t = Ir.Tree.((const 5 * var "a") + (var "b" * const 7)) in
  match Burg.Matcher.best m t with
  | None -> Alcotest.fail "no cover"
  | Some c ->
    (* muli(ldc-free: const direct) 1 + load 1; mul 2 + load 1 + ldc 1; add 2
       -> optimum = muli(1)+load(1) then mul path for b*7: no muli (const on
       the left only), so mul(2)+load(1)+ldc(1); plus add(2) = 8. *)
    Alcotest.(check int) "cost" 8 (Burg.Cover.cost c)

let test_label () =
  let m = Burg.Matcher.create fig4 in
  let labels = Burg.Matcher.label m (Ir.Tree.var "x") in
  Alcotest.(check (list (pair string int)))
    "labels"
    [ ("mem", 2); ("reg", 1) ]
    labels

let test_guard () =
  let rules =
    [
      Burg.Rule.make ~name:"small" ~lhs:"r" ~cost:1 Burg.Pattern.Const_any
        ~guard:(function Ir.Tree.Const k -> k >= 0 && k < 256 | _ -> false);
      Burg.Rule.make ~name:"big" ~lhs:"r" ~cost:2 Burg.Pattern.Const_any;
    ]
  in
  let g = Burg.Grammar.make ~name:"g" ~start:"r" rules in
  let m = Burg.Matcher.create g in
  let cost t =
    match Burg.Matcher.best m t with
    | Some c -> Burg.Cover.cost c
    | None -> -1
  in
  Alcotest.(check int) "small" 1 (cost (Ir.Tree.const 7));
  Alcotest.(check int) "big" 2 (cost (Ir.Tree.const 1000))

let test_dyn_cost () =
  let rules =
    [
      Burg.Rule.make ~name:"leaf" ~lhs:"r" ~cost:1 Burg.Pattern.Ref_any;
      Burg.Rule.make ~name:"shl" ~lhs:"r" ~cost:0
        (Burg.Pattern.Binop (Ir.Op.Shl, nt "r", Burg.Pattern.Const_any))
        ~dyn_cost:(function
          | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> k
          | _ -> 0);
    ]
  in
  let g = Burg.Grammar.make ~name:"g" ~start:"r" rules in
  let m = Burg.Matcher.create g in
  let t = Ir.Tree.Binop (Ir.Op.Shl, Ir.Tree.var "x", Ir.Tree.const 5) in
  match Burg.Matcher.best m t with
  | Some c -> Alcotest.(check int) "dyn cost" 6 (Burg.Cover.cost c)
  | None -> Alcotest.fail "no cover"

let test_no_cover () =
  let rules = [ Burg.Rule.make ~name:"leaf" ~lhs:"r" ~cost:1 Burg.Pattern.Ref_any ] in
  let g = Burg.Grammar.make ~name:"g" ~start:"r" rules in
  let m = Burg.Matcher.create g in
  Alcotest.(check bool) "no cover" true
    (Burg.Matcher.best m Ir.Tree.(var "x" + var "y") = None)

let test_chain_closure () =
  (* reg -> mem -> ind: two chain hops. *)
  let rules =
    [
      Burg.Rule.make ~name:"leaf" ~lhs:"reg" ~cost:1 Burg.Pattern.Ref_any;
      Burg.Rule.make ~name:"r2m" ~lhs:"mem" ~cost:2 (nt "reg");
      Burg.Rule.make ~name:"m2i" ~lhs:"ind" ~cost:3 (nt "mem");
    ]
  in
  let g = Burg.Grammar.make ~name:"g" ~start:"ind" rules in
  let m = Burg.Matcher.create g in
  match Burg.Matcher.best m (Ir.Tree.var "x") with
  | Some c ->
    Alcotest.(check int) "chained cost" 6 (Burg.Cover.cost c);
    Alcotest.(check int) "pattern count" 1 (Burg.Cover.pattern_count c)
  | None -> Alcotest.fail "no cover"

let test_best_of_variants () =
  let m = Burg.Matcher.create fig4 in
  (* 5 + a is cheaper as a + 5 (addi applies with the constant on the right):
     variants let the matcher exploit commutativity. *)
  let t1 = Ir.Tree.(const 5 + var "a") in
  let t2 = Ir.Tree.(var "a" + const 5) in
  match Burg.Matcher.best_of_variants m [ t1; t2 ] with
  | Some (v, c) ->
    Alcotest.(check bool) "picked commuted" true (v = t2);
    Alcotest.(check int) "cost" 2 (Burg.Cover.cost c)
  | None -> Alcotest.fail "no cover"

(* ---- Optimality: DP result equals brute-force minimum ------------------ *)

(* Brute-force minimal derivation cost with bounded chain depth. *)
let rec brute rules nt t fuel =
  if fuel = 0 then None
  else
    List.fold_left
      (fun best (r : Burg.Rule.t) ->
        if r.lhs <> nt then best
        else
          let guard_ok = match r.guard with None -> true | Some g -> g t in
          if not guard_ok then best
          else
            match match_bf r.pattern t fuel rules with
            | None -> best
            | Some sub_cost -> (
              let c = Burg.Rule.cost_at r t + sub_cost in
              match best with
              | Some b when b <= c -> best
              | Some _ | None -> Some c))
      None rules

and match_bf p t fuel rules =
  match (p, t) with
  | Burg.Pattern.Nonterm nt, _ -> brute rules nt t (fuel - 1)
  | Burg.Pattern.Const_any, Ir.Tree.Const _ -> Some 0
  | Burg.Pattern.Const_eq k, Ir.Tree.Const k' when k = k' -> Some 0
  | Burg.Pattern.Ref_any, Ir.Tree.Ref _ -> Some 0
  | Burg.Pattern.Unop (op, pa), Ir.Tree.Unop (op', a) when op = op' ->
    match_bf pa a fuel rules
  | Burg.Pattern.Binop (op, pa, pb), Ir.Tree.Binop (op', a, b) when op = op'
    -> (
    match match_bf pa a fuel rules with
    | None -> None
    | Some ca -> (
      match match_bf pb b fuel rules with
      | None -> None
      | Some cb -> Some (ca + cb)))
  | _ -> None

let gen_small_tree =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun k -> Ir.Tree.Const k) (int_range 0 300);
        map Ir.Tree.var (oneofl [ "x"; "y" ]);
      ]
  in
  sized
    (fix (fun self n ->
         if n = 0 then leaf
         else
           oneof
             [
               leaf;
               map2
                 (fun op (a, b) -> Ir.Tree.Binop (op, a, b))
                 (oneofl Ir.Op.[ Add; Mul ])
                 (pair (self (n / 2)) (self (n / 2)));
             ]))

let prop_dp_optimal =
  QCheck.Test.make ~name:"matcher cost equals brute-force minimum" ~count:300
    (QCheck.make ~print:Ir.Tree.to_string gen_small_tree)
    (fun t ->
      let m = Burg.Matcher.create fig4 in
      let dp =
        match Burg.Matcher.best m t with
        | Some c -> Some (Burg.Cover.cost c)
        | None -> None
      in
      let bf = brute fig4_rules "reg" t (Ir.Tree.size t + 8) in
      dp = bf)

let prop_cover_cost_consistent =
  QCheck.Test.make ~name:"reported label cost equals cover cost" ~count:200
    (QCheck.make ~print:Ir.Tree.to_string gen_small_tree)
    (fun t ->
      let m = Burg.Matcher.create fig4 in
      match Burg.Matcher.best m t with
      | None -> true
      | Some c ->
        List.assoc "reg" (Burg.Matcher.label m t) = Burg.Cover.cost c)

let suites =
  [
    ( "burg.grammar",
      [
        Alcotest.test_case "fig4 grammar ok" `Quick test_grammar_check_ok;
        Alcotest.test_case "duplicate name" `Quick test_grammar_duplicate_name;
        Alcotest.test_case "missing nonterm" `Quick test_grammar_missing_nonterm;
        Alcotest.test_case "zero-cost cycle" `Quick test_grammar_zero_cycle;
        Alcotest.test_case "positive cycle ok" `Quick
          test_grammar_positive_cycle_ok;
      ] );
    ( "burg.matcher",
      [
        Alcotest.test_case "fig5 cover" `Quick test_fig5_cover;
        Alcotest.test_case "fig4 full tree" `Quick test_fig4_full_tree;
        Alcotest.test_case "labels" `Quick test_label;
        Alcotest.test_case "guards" `Quick test_guard;
        Alcotest.test_case "dynamic costs" `Quick test_dyn_cost;
        Alcotest.test_case "no cover" `Quick test_no_cover;
        Alcotest.test_case "chain closure" `Quick test_chain_closure;
        Alcotest.test_case "best of variants" `Quick test_best_of_variants;
        QCheck_alcotest.to_alcotest prop_dp_optimal;
        QCheck_alcotest.to_alcotest prop_cover_cost_consistent;
      ] );
  ]

(* ---- Consistency on a production grammar --------------------------------- *)

(* Brute force is exponential on the 29-rule C25 grammar; check cheap
   invariants instead: the reported label cost equals the extracted cover's
   cost, covers never shrink when a tree grows by one operation, and every
   contract tree is coverable. *)
let prop_tic25_consistent =
  QCheck.Test.make ~name:"C25 grammar: labels consistent, trees coverable"
    ~count:200
    (QCheck.make ~print:Ir.Tree.to_string gen_small_tree)
    (fun t ->
      let m = Burg.Matcher.create Target.Tic25.machine.Target.Machine.grammar in
      match Burg.Matcher.best m t with
      | None -> false (* the C25 grammar is complete for this tree language *)
      | Some c ->
        List.assoc "acc" (Burg.Matcher.label m t) = Burg.Cover.cost c
        &&
        (* Wrapping the tree in one more addition costs at most one more
           load plus the add itself. *)
        let bigger = Ir.Tree.(t + var "zz") in
        (match Burg.Matcher.best m bigger with
        | None -> false
        | Some c' ->
          Burg.Cover.cost c' >= Burg.Cover.cost c
          && Burg.Cover.cost c' <= Burg.Cover.cost c + 3))

(* A guard receives the subtree matched by the rule's whole pattern.  A
   guard written against the wrong node (a saturating twin whose guard
   expects the bare [Binop] rather than the enclosing [Sat]) rejects every
   tree, and the rule silently never fires.  Instantiate each guarded base
   rule's own pattern over small operands and boundary constants, and
   require some instance to pass. *)
let guard_consts = [ 0; 1; 2; 5; 15; 16; 255; 256; -1; 4095; 32767 ]

let rec instances : Burg.Pattern.t -> Ir.Tree.t list = function
  | Burg.Pattern.Nonterm _ ->
    Ir.Tree.[ var "a"; var "a" + var "b"; var "a" * var "b" ]
  | Burg.Pattern.Const_any -> List.map Ir.Tree.const guard_consts
  | Burg.Pattern.Const_eq k -> [ Ir.Tree.const k ]
  | Burg.Pattern.Ref_any -> [ Ir.Tree.var "a" ]
  | Burg.Pattern.Unop (op, p) ->
    List.map (fun t -> Ir.Tree.Unop (op, t)) (instances p)
  | Burg.Pattern.Binop (op, l, r) ->
    List.concat_map
      (fun a -> List.map (fun b -> Ir.Tree.Binop (op, a, b)) (instances r))
      (instances l)

let test_no_dead_rules () =
  let dead =
    List.concat_map
      (fun (m : Target.Machine.t) ->
        List.filter_map
          (fun (r : Burg.Rule.t) ->
            match r.Burg.Rule.guard with
            | Some guard
              when (not (Burg.Rule.is_chain r))
                   && not (List.exists guard (instances r.Burg.Rule.pattern))
              ->
              Some (m.Target.Machine.name ^ "/" ^ r.Burg.Rule.name)
            | Some _ | None -> None)
          m.Target.Machine.grammar.Burg.Grammar.rules)
      (Driver.Registry.machines ())
  in
  Alcotest.(check (list string)) "rules whose guard rejects every instance"
    [] dead

let suites =
  suites
  @ [
      ( "burg.production",
        [
          QCheck_alcotest.to_alcotest prop_tic25_consistent;
          Alcotest.test_case "no dead guarded rules" `Quick test_no_dead_rules;
        ] );
    ]

(* ---- Engine differential: dp and table covers are byte-identical --------- *)

let rec cover_equal (a : Burg.Cover.t) (b : Burg.Cover.t) =
  a.Burg.Cover.rule == b.Burg.Cover.rule
  && a.Burg.Cover.node = b.Burg.Cover.node
  && List.length a.Burg.Cover.children = List.length b.Burg.Cover.children
  && List.for_all2 cover_equal a.Burg.Cover.children b.Burg.Cover.children

let engines_agree_on g trees =
  let md = Burg.Matcher.create ~engine:Burg.Matcher.Dp g in
  let mt = Burg.Matcher.create ~engine:Burg.Matcher.Table g in
  List.iter
    (fun t ->
      let s = Ir.Tree.to_string t in
      Alcotest.(check (list (pair string int)))
        ("labels: " ^ s)
        (Burg.Matcher.label md t) (Burg.Matcher.label mt t);
      match (Burg.Matcher.best md t, Burg.Matcher.best mt t) with
      | None, None -> ()
      | Some ca, Some cb ->
        Alcotest.(check bool) ("identical cover: " ^ s) true (cover_equal ca cb)
      | Some _, None -> Alcotest.fail ("table misses a cover dp finds: " ^ s)
      | None, Some _ -> Alcotest.fail ("table invents a cover: " ^ s))
    trees

let test_engines_agree_fig4 () =
  engines_agree_on fig4
    Ir.Tree.
      [
        var "x";
        const 7;
        const 5 + var "a";
        var "a" + const 5;
        (const 5 * var "a") + (var "b" * const 7);
        (var "x" + var "y") * (var "x" + var "y");
      ]

let test_engines_agree_tic25 () =
  (* Exercises guarded rules (immediate forms, shifts), dynamic costs and
     the accumulator chain closure of the production C25 grammar. *)
  engines_agree_on Target.Tic25.machine.Target.Machine.grammar
    Ir.Tree.
      [
        var "x";
        const 0;
        const 255;
        const 70000;
        var "a" + (var "b" * var "c");
        (var "b" * var "c") + var "a";
        var "a" - const 3;
        Unop (Ir.Op.Neg, var "a" + var "b");
        Unop (Ir.Op.Sat, var "a" + (var "b" * var "c"));
        Binop (Ir.Op.Shl, var "a", const 4);
        Binop (Ir.Op.Shr, var "a" + var "b", const 1);
        Binop (Ir.Op.And, var "a", const 255);
      ]

let prop_engines_agree =
  QCheck.Test.make
    ~name:"dp and table engines agree on labels and covers (tic25)" ~count:300
    (QCheck.make ~print:Ir.Tree.to_string gen_small_tree)
    (fun t ->
      let g = Target.Tic25.machine.Target.Machine.grammar in
      let md = Burg.Matcher.create ~engine:Burg.Matcher.Dp g in
      let mt = Burg.Matcher.create ~engine:Burg.Matcher.Table g in
      Burg.Matcher.label md t = Burg.Matcher.label mt t
      &&
      match (Burg.Matcher.best md t, Burg.Matcher.best mt t) with
      | None, None -> true
      | Some ca, Some cb -> cover_equal ca cb
      | Some _, None | None, Some _ -> false)

(* ---- On-demand automaton: states exist only once labelling reaches them -- *)

let test_create_builds_nothing () =
  List.iter
    (fun (m : Target.Machine.t) ->
      let name = m.Target.Machine.name in
      let live = (Ir.Hashcons.stats ()).Ir.Hashcons.live in
      let mt = Burg.Matcher.create m.Target.Machine.grammar in
      Alcotest.(check (pair int int))
        (name ^ ": states and transitions after create")
        (0, 0)
        (Burg.Matcher.state_count mt, Burg.Matcher.transition_count mt);
      Alcotest.(check int)
        (name ^ ": create interns no node")
        live (Ir.Hashcons.stats ()).Ir.Hashcons.live)
    (Driver.Registry.machines ())

let test_table1_builds_few_transitions () =
  let tic25 = Target.Tic25.machine in
  let matcher = Burg.Matcher.create tic25.Target.Machine.grammar in
  List.iter
    (fun k ->
      ignore
        (Record.Pipeline.compile ~options:Record.Options.record_ ~matcher tic25
           (Dspstone.Kernels.prog k)))
    Dspstone.Kernels.all;
  let n = Burg.Matcher.transition_count matcher in
  Alcotest.(check bool)
    (Printf.sprintf "Table 1 on tic25 builds 1..99 transitions (got %d)" n)
    true
    (n >= 1 && n < 100)

(* A dynamic cost that goes negative on large constants: nothing labels a
   constant at [create], so only the tree that reaches it raises. *)
let test_negative_cost_raises_at_labelling () =
  let g =
    Burg.Grammar.make ~name:"negdyn" ~start:"reg"
      [
        Burg.Rule.make ~name:"ldc" ~lhs:"reg" ~cost:1
          ~dyn_cost:(function Ir.Tree.Const k -> 4 - k | _ -> 1)
          Burg.Pattern.Const_any;
        Burg.Rule.make ~name:"load" ~lhs:"reg" ~cost:1 Burg.Pattern.Ref_any;
      ]
  in
  let m = Burg.Matcher.create g in
  Alcotest.(check (list (pair string int)))
    "const 2 costs 2" [ ("reg", 2) ]
    (Burg.Matcher.label m (Ir.Tree.const 2));
  match Burg.Matcher.best m (Ir.Tree.const 8) with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative derivation cost was not reported"

let suites =
  suites
  @ [
      ( "burs.engine",
        [
          Alcotest.test_case "dp vs table: fig4" `Quick test_engines_agree_fig4;
          Alcotest.test_case "dp vs table: tic25" `Quick
            test_engines_agree_tic25;
          QCheck_alcotest.to_alcotest prop_engines_agree;
          Alcotest.test_case "create builds no state" `Quick
            test_create_builds_nothing;
          Alcotest.test_case "Table 1 builds few transitions" `Quick
            test_table1_builds_few_transitions;
          Alcotest.test_case "negative cost raises at labelling" `Quick
            test_negative_cost_raises_at_labelling;
        ] );
    ]
