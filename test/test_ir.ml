(* Unit and property tests for the IR: operators, references, trees,
   programs, the reference interpreter, algebraic variants, and the DFG
   decomposition. *)

let tree = Alcotest.testable Ir.Tree.pp Ir.Tree.equal

(* ---- Op ---------------------------------------------------------------- *)

let test_eval_binop () =
  Alcotest.(check int) "add" 7 (Ir.Op.eval_binop Ir.Op.Add 3 4);
  Alcotest.(check int) "sub" (-1) (Ir.Op.eval_binop Ir.Op.Sub 3 4);
  Alcotest.(check int) "mul" 12 (Ir.Op.eval_binop Ir.Op.Mul 3 4);
  Alcotest.(check int) "and" 2 (Ir.Op.eval_binop Ir.Op.And 3 6);
  Alcotest.(check int) "or" 7 (Ir.Op.eval_binop Ir.Op.Or 3 6);
  Alcotest.(check int) "xor" 5 (Ir.Op.eval_binop Ir.Op.Xor 3 6);
  Alcotest.(check int) "shl" 12 (Ir.Op.eval_binop Ir.Op.Shl 3 2);
  Alcotest.(check int) "shr" (-2) (Ir.Op.eval_binop Ir.Op.Shr (-8) 2)

let test_eval_unop () =
  Alcotest.(check int) "neg" (-3) (Ir.Op.eval_unop Ir.Op.Neg ~width:16 3);
  Alcotest.(check int) "not" (-4) (Ir.Op.eval_unop Ir.Op.Not ~width:16 3);
  Alcotest.(check int) "sat hi" 32767
    (Ir.Op.eval_unop Ir.Op.Sat ~width:16 100000);
  Alcotest.(check int) "sat lo" (-32768)
    (Ir.Op.eval_unop Ir.Op.Sat ~width:16 (-100000));
  Alcotest.(check int) "sat id" 1234 (Ir.Op.eval_unop Ir.Op.Sat ~width:16 1234)

let test_commutative () =
  Alcotest.(check bool) "add" true (Ir.Op.commutative Ir.Op.Add);
  Alcotest.(check bool) "sub" false (Ir.Op.commutative Ir.Op.Sub);
  Alcotest.(check bool) "shl" false (Ir.Op.commutative Ir.Op.Shl)

(* ---- Mref / Tree ------------------------------------------------------- *)

let test_mref_print () =
  Alcotest.(check string) "scalar" "x" (Ir.Mref.to_string (Ir.Mref.scalar "x"));
  Alcotest.(check string) "elem" "a[3]" (Ir.Mref.to_string (Ir.Mref.elem "a" 3));
  Alcotest.(check string) "induct" "a[i]"
    (Ir.Mref.to_string (Ir.Mref.induct "a" ~ivar:"i"));
  Alcotest.(check string) "induct+1" "a[i+1]"
    (Ir.Mref.to_string (Ir.Mref.induct ~offset:1 "a" ~ivar:"i"))

(* [Ir.Decimal.add_int] writes what [string_of_int] returns, appended to
   what the buffer holds: the extremes, every digit-count boundary, and
   random ints of every magnitude. *)
let test_decimal () =
  let st = Random.State.make [| 7 |] in
  let powers = List.init 18 (fun k -> int_of_float (10. ** float (k + 1))) in
  let edges =
    [ 0; 1; -1; 9; -9; max_int; min_int; max_int - 1; min_int + 1 ]
    @ List.concat_map (fun p -> [ p; p - 1; -p; 1 - p ]) powers
  in
  let random =
    List.init 2000 (fun k ->
        let v = Random.State.bits st lsr (k mod 30) in
        if k land 1 = 0 then v else -v)
  in
  List.iter
    (fun n ->
      let b = Buffer.create 4 in
      Buffer.add_string b "x=";
      Ir.Decimal.add_int b n;
      Alcotest.(check string) "as string_of_int" ("x=" ^ string_of_int n)
        (Buffer.contents b))
    (edges @ random)

let test_tree_size () =
  let t = Ir.Tree.(var "x" + (var "y" * const 3)) in
  Alcotest.(check int) "size" 5 (Ir.Tree.size t);
  Alcotest.(check int) "depth" 3 (Ir.Tree.depth t);
  Alcotest.(check int) "refs" 2 (List.length (Ir.Tree.refs t))

let test_tree_ivars () =
  let t = Ir.Tree.(ref_ (Ir.Mref.induct "a" ~ivar:"i") + var "x") in
  Alcotest.(check (list string)) "ivars" [ "i" ] (Ir.Tree.ivars t)

(* ---- Prog validation --------------------------------------------------- *)

let xy_decls =
  [
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "x";
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y";
    Ir.Prog.array_decl ~storage:Ir.Prog.Input "a" 8;
  ]

let test_prog_valid () =
  let p =
    Ir.Prog.make ~name:"ok" ~decls:xy_decls
      [
        Ir.Prog.assign (Ir.Mref.scalar "y") Ir.Tree.(var "x" + const 1);
        Ir.Prog.loop "i" 8
          [
            Ir.Prog.assign (Ir.Mref.scalar "y")
              Ir.Tree.(var "y" + ref_ (Ir.Mref.induct "a" ~ivar:"i"));
          ];
      ]
  in
  Alcotest.(check string) "name" "ok" p.Ir.Prog.name

let expect_invalid name decls body =
  match Ir.Prog.validate { Ir.Prog.name; decls; body } with
  | Ok () -> Alcotest.failf "%s: expected validation failure" name
  | Error _ -> ()

let test_prog_invalid () =
  expect_invalid "undeclared" xy_decls
    [ Ir.Prog.assign (Ir.Mref.scalar "z") (Ir.Tree.const 0) ];
  expect_invalid "oob" xy_decls
    [ Ir.Prog.assign (Ir.Mref.scalar "y") (Ir.Tree.ref_ (Ir.Mref.elem "a" 9)) ];
  expect_invalid "loose ivar" xy_decls
    [
      Ir.Prog.assign (Ir.Mref.scalar "y")
        (Ir.Tree.ref_ (Ir.Mref.induct "a" ~ivar:"i"));
    ];
  expect_invalid "induct oob" xy_decls
    [
      Ir.Prog.loop "i" 8
        [
          Ir.Prog.assign (Ir.Mref.scalar "y")
            (Ir.Tree.ref_ (Ir.Mref.induct ~offset:1 "a" ~ivar:"i"));
        ];
    ];
  expect_invalid "shadow" xy_decls
    [ Ir.Prog.loop "x" 2 [ Ir.Prog.assign (Ir.Mref.scalar "y") (Ir.Tree.const 0) ] ];
  expect_invalid "dup decl"
    (xy_decls @ [ Ir.Prog.scalar_decl "x" ])
    [ Ir.Prog.assign (Ir.Mref.scalar "y") (Ir.Tree.const 0) ]

(* ---- Eval -------------------------------------------------------------- *)

let test_eval_wrap () =
  Alcotest.(check int) "wrap pos" (-32768) (Ir.Eval.wrap ~width:16 32768);
  Alcotest.(check int) "wrap neg" 32767 (Ir.Eval.wrap ~width:16 (-32769));
  Alcotest.(check int) "wrap id" 1234 (Ir.Eval.wrap ~width:16 1234);
  Alcotest.(check int) "wrap 8" (-128) (Ir.Eval.wrap ~width:8 128)

let test_eval_dot_product () =
  let decls =
    [
      Ir.Prog.array_decl ~storage:Ir.Prog.Input "a" 4;
      Ir.Prog.array_decl ~storage:Ir.Prog.Input "b" 4;
      Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "z";
    ]
  in
  let p =
    Ir.Prog.make ~name:"dot" ~decls
      [
        Ir.Prog.assign (Ir.Mref.scalar "z") (Ir.Tree.const 0);
        Ir.Prog.loop "i" 4
          [
            Ir.Prog.assign (Ir.Mref.scalar "z")
              Ir.Tree.(
                var "z"
                + ref_ (Ir.Mref.induct "a" ~ivar:"i")
                  * ref_ (Ir.Mref.induct "b" ~ivar:"i"));
          ];
      ]
  in
  let outs =
    Ir.Eval.run_with_inputs p
      [ ("a", [| 1; 2; 3; 4 |]); ("b", [| 5; 6; 7; 8 |]) ]
  in
  Alcotest.(check int) "dot" 70 (List.assoc "z" outs).(0)

let test_eval_delay_chain () =
  (* y = sat(x + 30000) saturates; plain add wraps on store. *)
  let decls =
    [
      Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "x";
      Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "ysat";
      Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "ywrap";
    ]
  in
  let p =
    Ir.Prog.make ~name:"sat" ~decls
      [
        Ir.Prog.assign (Ir.Mref.scalar "ysat")
          Ir.Tree.(sat (var "x" + const 30000));
        Ir.Prog.assign (Ir.Mref.scalar "ywrap")
          Ir.Tree.(var "x" + const 30000);
      ]
  in
  let outs = Ir.Eval.run_with_inputs p [ ("x", [| 10000 |]) ] in
  Alcotest.(check int) "sat" 32767 (List.assoc "ysat" outs).(0);
  Alcotest.(check int) "wrap" (-25536) (List.assoc "ywrap" outs).(0)

let test_eval_env_errors () =
  let p = Ir.Prog.make ~name:"e" ~decls:xy_decls [] in
  let env = Ir.Eval.env_create p in
  Alcotest.check_raises "bad length"
    (Invalid_argument "Eval.env_set: x expects 1 values, got 2") (fun () ->
      Ir.Eval.env_set env "x" [| 1; 2 |])

(* ---- Algebra ----------------------------------------------------------- *)

let test_variants_commute () =
  let t = Ir.Tree.(var "x" + var "y") in
  let vs = Ir.Algebra.variants t in
  Alcotest.(check bool) "original first" true (List.hd vs = t);
  Alcotest.(check bool) "commuted present" true
    (List.mem Ir.Tree.(var "y" + var "x") vs)

let test_variants_assoc () =
  let t = Ir.Tree.(var "x" + var "y" + var "z") in
  let vs = Ir.Algebra.variants t in
  Alcotest.(check bool) "reassociated" true
    (List.mem Ir.Tree.(var "x" + (var "y" + var "z")) vs)

let test_variants_mul_shift () =
  let t = Ir.Tree.(var "x" * const 8) in
  let vs = Ir.Algebra.variants t in
  Alcotest.(check bool) "shift form" true
    (List.mem (Ir.Tree.Binop (Ir.Op.Shl, Ir.Tree.var "x", Ir.Tree.const 3)) vs)

let test_variants_limit () =
  let t =
    Ir.Tree.(var "a" + var "b" + var "c" + var "d" + var "e" + var "f")
  in
  let vs = Ir.Algebra.variants ~limit:10 t in
  Alcotest.(check int) "capped" 10 (List.length vs)

let test_no_fold_by_default () =
  let t = Ir.Tree.(const 2 + const 3) in
  let vs = Ir.Algebra.variants t in
  Alcotest.(check bool) "no folding" false (List.mem (Ir.Tree.const 5) vs)

let test_fold_rule () =
  let t = Ir.Tree.(const 2 + const 3) in
  let vs = Ir.Algebra.variants ~rules:[ Ir.Algebra.Fold ] t in
  Alcotest.(check bool) "folded" true (List.mem (Ir.Tree.const 5) vs)

(* Random tree generator over a fixed set of variables. *)
let gen_tree =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun k -> Ir.Tree.Const k) (int_range (-20) 20);
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
  sized (fix (fun self n -> if n = 0 then leaf else node self n))

let arb_tree = QCheck.make ~print:Ir.Tree.to_string gen_tree

let prop_variants_equivalent =
  QCheck.Test.make ~name:"algebraic variants preserve semantics" ~count:200
    arb_tree (fun t ->
      let vs = Ir.Algebra.variants ~limit:16 t in
      List.for_all (fun v -> Ir.Algebra.equivalent t v) vs)

let prop_fold_equivalent =
  QCheck.Test.make ~name:"folding variants preserve semantics" ~count:200
    arb_tree (fun t ->
      let vs =
        Ir.Algebra.variants
          ~rules:(Ir.Algebra.Fold :: Ir.Algebra.default_rules)
          ~limit:16 t
      in
      List.for_all (fun v -> Ir.Algebra.equivalent t v) vs)

(* ---- Dfg ---------------------------------------------------------------- *)

let test_dfg_sharing () =
  (* (x+y) used twice -> one shared node, one temp after decomposition. *)
  let s1 =
    { Ir.Prog.dst = Ir.Mref.scalar "u"; src = Ir.Tree.(var "x" + var "y") }
  in
  let s2 =
    {
      Ir.Prog.dst = Ir.Mref.scalar "v";
      src = Ir.Tree.((var "x" + var "y") * var "z");
    }
  in
  let g = Ir.Dfg.of_block [ s1; s2 ] in
  Alcotest.(check int) "shared" 1 (Ir.Dfg.shared_count g);
  let stmts, decls = Ir.Dfg.to_stmts g in
  Alcotest.(check int) "one temp" 1 (List.length decls);
  Alcotest.(check int) "three stmts" 3 (List.length stmts)

let test_dfg_versioning () =
  (* A write to x between two x+y reads kills sharing. *)
  let s1 =
    { Ir.Prog.dst = Ir.Mref.scalar "u"; src = Ir.Tree.(var "x" + var "y") }
  in
  let s2 = { Ir.Prog.dst = Ir.Mref.scalar "x"; src = Ir.Tree.const 5 } in
  let s3 =
    { Ir.Prog.dst = Ir.Mref.scalar "v"; src = Ir.Tree.(var "x" + var "y") }
  in
  let g = Ir.Dfg.of_block [ s1; s2; s3 ] in
  Alcotest.(check int) "no sharing" 0 (Ir.Dfg.shared_count g)

let test_dfg_identity_when_no_sharing () =
  let s1 =
    { Ir.Prog.dst = Ir.Mref.scalar "u"; src = Ir.Tree.(var "x" + var "y") }
  in
  let stmts, decls = Ir.Dfg.decompose [ s1 ] in
  Alcotest.(check int) "no temps" 0 (List.length decls);
  Alcotest.check tree "same tree" s1.src (List.hd stmts).Ir.Prog.src

(* Random straight-line blocks for semantic equivalence of decomposition. *)
let gen_block =
  let open QCheck.Gen in
  let dst = oneofl [ "x"; "y"; "z"; "u"; "v" ] in
  list_size (int_range 1 6)
    (map2
       (fun d t -> { Ir.Prog.dst = Ir.Mref.scalar d; src = t })
       dst gen_tree)

let block_print block =
  String.concat "; "
    (List.map
       (fun (s : Ir.Prog.stmt) ->
         Ir.Mref.to_string s.dst ^ " = " ^ Ir.Tree.to_string s.src)
       block)

let run_block decls block =
  let p = Ir.Prog.make ~name:"b" ~decls (List.map (fun s -> Ir.Prog.Stmt s) block) in
  Ir.Eval.run_with_inputs p [ ("x", [| 3 |]); ("y", [| -7 |]); ("z", [| 11 |]) ]

let prop_dfg_decompose_preserves =
  QCheck.Test.make ~name:"DFG decomposition preserves block semantics"
    ~count:300
    (QCheck.make ~print:block_print gen_block)
    (fun block ->
      let decls =
        [
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "x";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "y";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "z";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "u";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "v";
        ]
      in
      let stmts, temp_decls = Ir.Dfg.decompose block in
      let out1 = run_block decls block in
      let out2 = run_block (decls @ temp_decls) stmts in
      out1 = out2)

let suites =
  [
    ( "ir.op",
      [
        Alcotest.test_case "eval_binop" `Quick test_eval_binop;
        Alcotest.test_case "eval_unop" `Quick test_eval_unop;
        Alcotest.test_case "commutative" `Quick test_commutative;
      ] );
    ( "ir.tree",
      [
        Alcotest.test_case "mref printing" `Quick test_mref_print;
        Alcotest.test_case "size/depth/refs" `Quick test_tree_size;
        Alcotest.test_case "ivars" `Quick test_tree_ivars;
        Alcotest.test_case "decimal digits" `Quick test_decimal;
      ] );
    ( "ir.prog",
      [
        Alcotest.test_case "valid program" `Quick test_prog_valid;
        Alcotest.test_case "invalid programs" `Quick test_prog_invalid;
      ] );
    ( "ir.eval",
      [
        Alcotest.test_case "wrap" `Quick test_eval_wrap;
        Alcotest.test_case "dot product" `Quick test_eval_dot_product;
        Alcotest.test_case "saturation vs wrap" `Quick test_eval_delay_chain;
        Alcotest.test_case "env errors" `Quick test_eval_env_errors;
      ] );
    ( "ir.algebra",
      [
        Alcotest.test_case "commute" `Quick test_variants_commute;
        Alcotest.test_case "assoc" `Quick test_variants_assoc;
        Alcotest.test_case "mul to shift" `Quick test_variants_mul_shift;
        Alcotest.test_case "limit" `Quick test_variants_limit;
        Alcotest.test_case "no fold by default" `Quick test_no_fold_by_default;
        Alcotest.test_case "fold rule" `Quick test_fold_rule;
        QCheck_alcotest.to_alcotest prop_variants_equivalent;
        QCheck_alcotest.to_alcotest prop_fold_equivalent;
      ] );
    ( "ir.dfg",
      [
        Alcotest.test_case "sharing" `Quick test_dfg_sharing;
        Alcotest.test_case "versioning" `Quick test_dfg_versioning;
        Alcotest.test_case "identity" `Quick test_dfg_identity_when_no_sharing;
        QCheck_alcotest.to_alcotest prop_dfg_decompose_preserves;
      ] );
  ]
