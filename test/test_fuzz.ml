(* The differential fuzzing subsystem: a fixed-seed corpus checked on every
   bundled machine under both option sets, generator determinism, shrinker
   behaviour, and regression cases for bugs the fuzzer has found. *)

let corpus_seed = 42
let corpus_count = 200

(* ---- fixed-seed corpus --------------------------------------------------- *)

let test_corpus_differential () =
  let r =
    Fuzz.Oracle.run ~shrink:false ~seed:corpus_seed ~count:corpus_count ()
  in
  (match r.Fuzz.Oracle.counterexamples with
  | [] -> ()
  | cex :: _ ->
    Alcotest.failf "corpus counterexample:@ %a" Fuzz.Oracle.pp_counterexample
      cex);
  (* the corpus must genuinely exercise every machine/options combination *)
  List.iter
    (fun (label, n) ->
      if n = 0 then Alcotest.failf "combo %s never passed a case" label)
    r.Fuzz.Oracle.pass

(* ---- determinism --------------------------------------------------------- *)

let report_string r = Format.asprintf "%a" Fuzz.Oracle.pp_report r

let test_campaign_deterministic () =
  let run () = Fuzz.Oracle.run ~shrink:false ~seed:7 ~count:60 () in
  Alcotest.(check string)
    "identical reports" (report_string (run ())) (report_string (run ()))

let case_string (c : Fuzz.Gen.case) =
  Format.asprintf "%a|%s" Ir.Prog.pp c.prog
    (String.concat ";"
       (List.map
          (fun (n, vs) ->
            n ^ "="
            ^ String.concat "," (Array.to_list (Array.map string_of_int vs)))
          c.inputs))

let test_generation_prefix_stable () =
  (* extending a campaign's count must preserve the cases already generated *)
  let short = Fuzz.Gen.cases ~seed:5 ~count:6 ()
  and long = Fuzz.Gen.cases ~seed:5 ~count:12 () in
  List.iteri
    (fun i c ->
      Alcotest.(check string)
        (Printf.sprintf "case %d" i)
        (case_string c)
        (case_string (List.nth long i)))
    short

(* ---- generator validity -------------------------------------------------- *)

let test_generated_cases_valid () =
  List.iter
    (fun seed ->
      List.iter
        (fun (c : Fuzz.Gen.case) ->
          (match Ir.Prog.validate c.prog with
          | Ok () -> ()
          | Error e ->
            Alcotest.failf "seed %d case %d invalid: %s" seed c.index e);
          (* every input declaration gets values of the declared size *)
          List.iter
            (fun (d : Ir.Prog.decl) ->
              match d.storage with
              | Ir.Prog.Input ->
                let vs =
                  match List.assoc_opt d.name c.inputs with
                  | Some vs -> vs
                  | None -> Alcotest.failf "input %s has no values" d.name
                in
                Alcotest.(check int)
                  (Printf.sprintf "size of %s" d.name)
                  d.size (Array.length vs)
              | Ir.Prog.Output | Ir.Prog.Temp -> ())
            c.prog.Ir.Prog.decls)
        (Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 8) ~seed ~count:40 ()))
    [ 1; 2; 3 ]

(* ---- shrinking ----------------------------------------------------------- *)

let rec tree_has_mul = function
  | Ir.Tree.Binop (Ir.Op.Mul, _, _) -> true
  | Ir.Tree.Binop (_, a, b) -> tree_has_mul a || tree_has_mul b
  | Ir.Tree.Unop (_, a) -> tree_has_mul a
  | Ir.Tree.Const _ | Ir.Tree.Ref _ -> false

let rec item_has_mul = function
  | Ir.Prog.Stmt { src; _ } -> tree_has_mul src
  | Ir.Prog.Loop { body; _ } -> List.exists item_has_mul body

let has_mul (p : Ir.Prog.t) = List.exists item_has_mul p.Ir.Prog.body

let rec item_stmts = function
  | Ir.Prog.Stmt _ -> 1
  | Ir.Prog.Loop { body; _ } -> List.fold_left (fun n i -> n + item_stmts i) 0 body

let stmt_count (p : Ir.Prog.t) =
  List.fold_left (fun n i -> n + item_stmts i) 0 p.Ir.Prog.body

let test_shrink_to_minimal () =
  (* stand-in for a failing oracle: "the program contains a multiply".
     greedy shrinking must reach a minimal still-"failing" case and keep it
     valid *)
  let case =
    match
      List.find_opt
        (fun (c : Fuzz.Gen.case) -> has_mul c.prog && stmt_count c.prog > 1)
        (Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 8) ~seed:3 ~count:50 ())
    with
    | Some c -> c
    | None -> Alcotest.fail "no multi-statement case with a multiply"
  in
  let still_fails (c : Fuzz.Gen.case) = has_mul c.prog in
  let shrunk = Fuzz.Shrink.minimize ~still_fails case in
  Alcotest.(check bool) "still fails" true (has_mul shrunk.prog);
  (match Ir.Prog.validate shrunk.prog with
  | Ok () -> ()
  | Error e -> Alcotest.failf "shrunk program invalid: %s" e);
  Alcotest.(check int) "single statement" 1 (stmt_count shrunk.prog);
  (* the one surviving statement is the bare multiply *)
  (match shrunk.prog.Ir.Prog.body with
  | [ Ir.Prog.Stmt { src = Ir.Tree.Binop (Ir.Op.Mul, a, b); _ } ] ->
    let leaf = function
      | Ir.Tree.Const _ | Ir.Tree.Ref _ -> true
      | Ir.Tree.Unop _ | Ir.Tree.Binop _ -> false
    in
    Alcotest.(check bool) "leaf operands" true (leaf a && leaf b)
  | _ -> Alcotest.fail "expected a single bare multiply statement")

let test_shrink_keeps_passing_case () =
  (* nothing smaller fails -> the input comes back unchanged *)
  let case = Fuzz.Gen.case ~seed:1 ~index:0 () in
  let shrunk = Fuzz.Shrink.minimize ~still_fails:(fun _ -> false) case in
  Alcotest.(check string) "unchanged" (case_string case) (case_string shrunk)

(* ---- regressions for fuzzer-found bugs ----------------------------------- *)

(* Shrunk form of seed 102, case 122: squaring a stream element compiles to
   a multiply-accumulate whose two operands read the same address register,
   one with post-increment.  Post-modify addressing must only become
   visible at the instruction boundary, or the second read sees the stepped
   address. *)
let seed102_case () =
  let q = Ir.Tree.ref_ (Ir.Mref.induct "q" ~offset:2 ~ivar:"i") in
  let prog =
    Ir.Prog.make ~name:"sq"
      ~decls:
        [
          Ir.Prog.array_decl ~storage:Ir.Prog.Input "q" 4;
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "v";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Temp "w";
        ]
      [
        Ir.Prog.loop "i" 1
          [ Ir.Prog.assign (Ir.Mref.scalar "w") Ir.Tree.(q * q) ];
        Ir.Prog.assign (Ir.Mref.scalar "v") (Ir.Tree.var "w");
      ]
  in
  {
    Fuzz.Gen.seed = 102;
    index = 122;
    prog;
    inputs = [ ("q", [| 0; 0; 1; 0 |]) ];
  }

let test_regression_post_update_aliasing () =
  let case = seed102_case () in
  List.iter
    (fun (combo : Fuzz.Oracle.combo) ->
      let verdict =
        Fuzz.Oracle.check ~options:combo.options combo.machine case
      in
      if Fuzz.Oracle.is_failure verdict then
        Alcotest.failf "%s: %a" combo.label Fuzz.Oracle.pp_verdict verdict)
    (Fuzz.Oracle.default_combos ());
  (* the combo that originally miscompiled must now genuinely pass *)
  let asip =
    List.find
      (fun (c : Fuzz.Oracle.combo) -> c.label = "asip/record")
      (Fuzz.Oracle.default_combos ())
  in
  match Fuzz.Oracle.check ~options:asip.options asip.machine case with
  | Fuzz.Oracle.Pass _ -> ()
  | v -> Alcotest.failf "asip/record: %a" Fuzz.Oracle.pp_verdict v

(* Shrunk form of seed 1, case 1548 (max size 6): [sat(x add k)] on tic25.
   The guard of the saturating add-immediate rule looked for the constant
   on the rule's root, which is the enclosing [Sat], so the rule never
   fired and the tree was covered as a plain ADDK under [sat_id] — the
   saturation was dropped and 32767 + 1 wrapped. *)
let seed1_sat_addk_case () =
  let q2 = Ir.Tree.ref_ (Ir.Mref.elem "q" 2) in
  let prog =
    Ir.Prog.make ~name:"fuzz_1_1548"
      ~decls:
        [
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
          Ir.Prog.array_decl ~storage:Ir.Prog.Input "q" 4;
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "v";
        ]
      [
        Ir.Prog.assign (Ir.Mref.scalar "v")
          Ir.Tree.(sat (q2 + const 0 + Binop (Ir.Op.Or, const 0, var "b")));
      ]
  in
  {
    Fuzz.Gen.seed = 1;
    index = 1548;
    prog;
    inputs = [ ("b", [| 1 |]); ("q", [| 0; 0; 32767; 0 |]) ];
  }

let test_regression_tic25_sat_addk () =
  let case = seed1_sat_addk_case () in
  List.iter
    (fun engine ->
      let options =
        Record.Options.with_matcher engine Record.Options.record_
      in
      match Fuzz.Oracle.check ~options Target.Tic25.machine case with
      | Fuzz.Oracle.Pass _ -> ()
      | v ->
        Alcotest.failf "tic25/record (%s): %a"
          (Burg.Matcher.engine_name engine)
          Fuzz.Oracle.pp_verdict v)
    [ Burg.Matcher.Table; Burg.Matcher.Dp ]

(* The combos carry the registry's own machine values: the registry keys
   its long-lived matchers on physical grammar identity, so a combo built
   from a fresh machine value (a second default asip, with its own
   grammar) would make the first check replace the registry's warm
   matcher. *)
let test_default_combos_share_registry () =
  let combos = Fuzz.Oracle.default_combos () in
  let registry = Driver.Registry.machines () in
  List.iter
    (fun (c : Fuzz.Oracle.combo) ->
      Alcotest.(check bool)
        (c.label ^ ": the registry's machine value")
        true
        (List.exists (fun m -> m == c.machine) registry))
    combos;
  let asip =
    List.find (fun (c : Fuzz.Oracle.combo) -> c.label = "asip/record") combos
  in
  let registry_asip = Result.get_ok (Driver.Registry.find_machine "asip") in
  let before = Driver.Registry.matcher_for registry_asip in
  (match
     Fuzz.Oracle.check ~options:asip.options asip.machine (seed102_case ())
   with
  | Fuzz.Oracle.Pass _ -> ()
  | v -> Alcotest.failf "asip/record: %a" Fuzz.Oracle.pp_verdict v);
  Alcotest.(check bool) "a check keeps the registry's asip matcher" true
    (Driver.Registry.matcher_for registry_asip == before)

(* The dp-vs-table differential over a fuzz campaign: the seed-42 corpus
   at size 8 on every registry machine under both option sets, run once
   per labelling engine.  Neither run may find a counterexample, and the
   two reports (per-combo pass, skipped and cannot-compile counts) must be
   the same text. *)
let test_engines_agree_on_campaign () =
  let report engine =
    let combos =
      List.map
        (fun (c : Fuzz.Oracle.combo) ->
          { c with options = Record.Options.with_matcher engine c.options })
        (Fuzz.Oracle.default_combos ())
    in
    let r =
      Fuzz.Oracle.run ~config:(Fuzz.Gen.sized 8) ~combos ~seed:42 ~count:500
        ()
    in
    List.iter
      (fun c ->
        Alcotest.failf "%s: %a" (Burg.Matcher.engine_name engine)
          Fuzz.Oracle.pp_counterexample c)
      r.Fuzz.Oracle.counterexamples;
    Format.asprintf "%a" Fuzz.Oracle.pp_report r
  in
  Alcotest.(check string) "dp report = table report"
    (report Burg.Matcher.Table) (report Burg.Matcher.Dp)

let suites =
  [
    ( "fuzz.corpus",
      [
        Alcotest.test_case "seed-42 corpus differential" `Quick
          test_corpus_differential;
        Alcotest.test_case "campaign deterministic" `Quick
          test_campaign_deterministic;
        Alcotest.test_case "generation prefix-stable" `Quick
          test_generation_prefix_stable;
        Alcotest.test_case "generated cases valid" `Quick
          test_generated_cases_valid;
      ] );
    ( "fuzz.shrink",
      [
        Alcotest.test_case "shrinks to minimal" `Quick test_shrink_to_minimal;
        Alcotest.test_case "keeps passing case" `Quick
          test_shrink_keeps_passing_case;
      ] );
    ( "fuzz.regressions",
      [
        Alcotest.test_case "post-update aliasing (seed 102)" `Quick
          test_regression_post_update_aliasing;
        Alcotest.test_case "tic25 saturating add-immediate (seed 1)" `Quick
          test_regression_tic25_sat_addk;
        Alcotest.test_case "default combos share the registry's machines"
          `Quick test_default_combos_share_registry;
      ] );
    ( "fuzz.engines",
      [
        Alcotest.test_case "seed-42 campaign: dp and table agree" `Quick
          test_engines_agree_on_campaign;
      ] );
  ]
