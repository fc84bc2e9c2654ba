(* Frontend tests: lexer, parser, lowering, and parse-evaluate round trips. *)

(* ---- Lexer -------------------------------------------------------------- *)

let toks src = List.map fst (Dfl.Lexer.tokenize src)

let test_lex_basic () =
  Alcotest.(check int) "count" 7
    (List.length (toks "x = a + 1;"));
  (match toks "x = a + 1;" with
  | [ Dfl.Token.Ident "x"; Dfl.Token.Assign; Dfl.Token.Ident "a";
      Dfl.Token.Plus; Dfl.Token.Int 1; Dfl.Token.Semi; Dfl.Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "unexpected token stream")

let test_lex_keywords () =
  (match toks "program for to do begin end sat var input output param" with
  | [ Dfl.Token.Kprogram; Dfl.Token.Kfor; Dfl.Token.Kto; Dfl.Token.Kdo;
      Dfl.Token.Kbegin; Dfl.Token.Kend; Dfl.Token.Ksat; Dfl.Token.Kvar;
      Dfl.Token.Kinput; Dfl.Token.Koutput; Dfl.Token.Kparam; Dfl.Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "keyword stream")

(* Each keyword alone lexes as its token; a word that extends or shortens
   one, or differs in case, is an identifier. *)
let test_lex_keyword_words () =
  List.iter
    (fun (word, tok) ->
      match toks word with
      | [ t; Dfl.Token.Eof ] when t = tok -> ()
      | _ -> Alcotest.failf "%S is not its keyword" word)
    [
      ("program", Dfl.Token.Kprogram);
      ("param", Dfl.Token.Kparam);
      ("input", Dfl.Token.Kinput);
      ("output", Dfl.Token.Koutput);
      ("var", Dfl.Token.Kvar);
      ("begin", Dfl.Token.Kbegin);
      ("end", Dfl.Token.Kend);
      ("for", Dfl.Token.Kfor);
      ("to", Dfl.Token.Kto);
      ("do", Dfl.Token.Kdo);
      ("sat", Dfl.Token.Ksat);
    ];
  List.iter
    (fun word ->
      match toks word with
      | [ Dfl.Token.Ident w; Dfl.Token.Eof ] when w = word -> ()
      | _ -> Alcotest.failf "%S is not an identifier" word)
    [
      "ends"; "format"; "dot"; "sat2"; "t"; "d"; "fo"; "programs"; "params";
      "inputs"; "outputs"; "vars"; "begins"; "tox"; "do_"; "_for"; "End";
      "SAT"; "Program";
    ]

let test_lex_operators () =
  (match toks "<< >> & | ^ ~ * - [ ] ( ) ," with
  | [ Dfl.Token.Shl; Dfl.Token.Shr; Dfl.Token.Amp; Dfl.Token.Pipe;
      Dfl.Token.Caret; Dfl.Token.Tilde; Dfl.Token.Star; Dfl.Token.Minus;
      Dfl.Token.Lbracket; Dfl.Token.Rbracket; Dfl.Token.Lparen;
      Dfl.Token.Rparen; Dfl.Token.Comma; Dfl.Token.Eof ] ->
    ()
  | _ -> Alcotest.fail "operator stream")

let test_lex_comments () =
  Alcotest.(check int) "nested comment" 2
    (List.length (toks "(* outer (* inner *) still out *) x"));
  (match Dfl.Lexer.tokenize "(* unterminated" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Dfl.Lexer.Error _ -> ())

let test_lex_line_numbers () =
  let with_lines = Dfl.Lexer.tokenize "a\nb\n  c" in
  Alcotest.(check (list int)) "lines" [ 1; 2; 3; 3 ]
    (List.map snd with_lines)

let test_lex_illegal () =
  match Dfl.Lexer.tokenize "a ? b" with
  | _ -> Alcotest.fail "expected lexer error"
  | exception Dfl.Lexer.Error msg ->
    Alcotest.(check bool) "mentions line" true
      (String.length msg > 0 && String.sub msg 0 4 = "line")

(* ---- Parser -------------------------------------------------------------- *)

let parse_expr_of src =
  let p = Dfl.Parser.parse ("program t; output y; begin y = " ^ src ^ "; end") in
  match p.Dfl.Ast.body with
  | [ Dfl.Ast.Assign { rhs; _ } ] -> rhs
  | _ -> Alcotest.fail "expected single assignment"

let expr = Alcotest.testable Dfl.Ast.pp_expr ( = )

let test_parse_precedence () =
  Alcotest.check expr "mul binds tighter"
    (Dfl.Ast.Binary
       ( Ir.Op.Add,
         Dfl.Ast.Name "a",
         Dfl.Ast.Binary (Ir.Op.Mul, Dfl.Ast.Name "b", Dfl.Ast.Name "c") ))
    (parse_expr_of "a + b * c");
  Alcotest.check expr "shift binds looser than add"
    (Dfl.Ast.Binary
       ( Ir.Op.Shl,
         Dfl.Ast.Name "a",
         Dfl.Ast.Binary (Ir.Op.Add, Dfl.Ast.Name "b", Dfl.Ast.Num 1) ))
    (parse_expr_of "a << b + 1");
  Alcotest.check expr "and binds looser than shift"
    (Dfl.Ast.Binary
       ( Ir.Op.And,
         Dfl.Ast.Name "a",
         Dfl.Ast.Binary (Ir.Op.Shr, Dfl.Ast.Name "b", Dfl.Ast.Num 2) ))
    (parse_expr_of "a & b >> 2");
  Alcotest.check expr "or loosest"
    (Dfl.Ast.Binary
       ( Ir.Op.Or,
         Dfl.Ast.Name "a",
         Dfl.Ast.Binary (Ir.Op.Xor, Dfl.Ast.Name "b", Dfl.Ast.Name "c") ))
    (parse_expr_of "a | b ^ c")

let test_parse_left_assoc () =
  Alcotest.check expr "sub left assoc"
    (Dfl.Ast.Binary
       ( Ir.Op.Sub,
         Dfl.Ast.Binary (Ir.Op.Sub, Dfl.Ast.Name "a", Dfl.Ast.Name "b"),
         Dfl.Ast.Name "c" ))
    (parse_expr_of "a - b - c")

let test_parse_unary_sat () =
  Alcotest.check expr "sat of sum"
    (Dfl.Ast.Unary
       (Ir.Op.Sat, Dfl.Ast.Binary (Ir.Op.Add, Dfl.Ast.Name "a", Dfl.Ast.Name "b")))
    (parse_expr_of "sat(a + b)");
  Alcotest.check expr "negation"
    (Dfl.Ast.Unary (Ir.Op.Neg, Dfl.Ast.Name "a"))
    (parse_expr_of "-a");
  Alcotest.check expr "complement"
    (Dfl.Ast.Unary (Ir.Op.Not, Dfl.Ast.Name "a"))
    (parse_expr_of "~a")

let test_parse_decl_lists () =
  let p =
    Dfl.Parser.parse
      "program t; input a, b[4], c; output y; var u, v[2]; begin y = a; end"
  in
  Alcotest.(check int) "six declarations" 6 (List.length p.Dfl.Ast.decls)

let test_parse_for () =
  let p =
    Dfl.Parser.parse
      "program t; param N = 3; input a[N]; output y;\n\
       begin y = 0; for i = 0 to N - 1 do y = y + a[i]; end; end"
  in
  match p.Dfl.Ast.body with
  | [ _; Dfl.Ast.For { var = "i"; body = [ _ ]; _ } ] -> ()
  | _ -> Alcotest.fail "for structure"

let expect_parse_error src =
  match Dfl.Parser.parse src with
  | _ -> Alcotest.failf "expected parse error: %s" src
  | exception Dfl.Parser.Error _ -> ()

let test_parse_errors () =
  expect_parse_error "program t begin end";
  expect_parse_error "program t; begin y = ; end";
  expect_parse_error "program t; begin y = 1 end";
  expect_parse_error "program t; begin for i = 0 to do y = 1; end end";
  expect_parse_error "program t; begin end trailing"

(* ---- Lowering ------------------------------------------------------------ *)

let lower src = Dfl.Lower.source src

let test_lower_params () =
  let p =
    lower
      "program t; param N = 4; param M = N * 2; input a[M]; output y;\n\
       begin y = a[M - 1] + N; end"
  in
  (match Ir.Prog.find_decl p "a" with
  | Some d -> Alcotest.(check int) "size" 8 d.Ir.Prog.size
  | None -> Alcotest.fail "a undeclared");
  match p.Ir.Prog.body with
  | [ Ir.Prog.Stmt { src = Ir.Tree.Binop (Ir.Op.Add, Ir.Tree.Ref r, Ir.Tree.Const 4); _ } ] ->
    Alcotest.(check string) "elem" "a[7]" (Ir.Mref.to_string r)
  | _ -> Alcotest.fail "lowered body"

let test_lower_indices () =
  let p =
    lower
      "program t; param N = 8; input a[N]; output y;\n\
       begin\n\
       y = 0;\n\
       for i = 0 to N - 2 do\n\
       y = y + a[i] + a[i + 1] + a[N - 1 - i];\n\
       end;\n\
       end"
  in
  let refs =
    List.concat_map
      (fun (s : Ir.Prog.stmt) -> Ir.Tree.refs s.src)
      (Ir.Prog.stmts p)
  in
  let strings = List.map Ir.Mref.to_string refs in
  Alcotest.(check bool) "a[i]" true (List.mem "a[i]" strings);
  Alcotest.(check bool) "a[i+1]" true (List.mem "a[i+1]" strings);
  Alcotest.(check bool) "a[7-i] descending" true (List.mem "a[7-i]" strings)

let expect_lower_error src =
  match Dfl.Lower.source src with
  | _ -> Alcotest.failf "expected lowering error: %s" src
  | exception Dfl.Lower.Error _ -> ()

let test_lower_errors () =
  expect_lower_error "program t; output y; begin y = z; end";
  expect_lower_error "program t; input a[4]; output y; begin y = a; end";
  expect_lower_error "program t; input a; output y; begin y = a[0]; end";
  expect_lower_error "program t; input a[4]; output y; begin y = a[9]; end";
  expect_lower_error
    "program t; input a[4]; output y; begin for i = 1 to 3 do y = a[i]; end end";
  expect_lower_error
    "program t; input a[4]; output y; begin for i = 0 to 3 do y = i; end end";
  expect_lower_error
    "program t; input a[4]; output y;\n\
     begin for i = 0 to 3 do for i = 0 to 1 do y = a[i]; end end end";
  expect_lower_error "program t; param N = 2; output y; begin N = 3; end";
  expect_lower_error "program t; input x, x; output y; begin y = x; end";
  expect_lower_error
    "program t; input a[4]; output y; begin y = a[y]; end"

let test_lower_loop_bounds () =
  expect_lower_error
    "program t; input a[4]; output y; begin for i = 0 to -1 do y = a[i]; end end"

(* ---- End to end: parse, lower, evaluate ---------------------------------- *)

let test_roundtrip_matrix_sum () =
  let p =
    lower
      "program m; param R = 3; input a[R], b[R]; output s;\n\
       var t;\n\
       begin\n\
       s = 0;\n\
       for i = 0 to R - 1 do\n\
       t = a[i] * b[i];\n\
       s = s + t;\n\
       end;\n\
       end"
  in
  let outs =
    Ir.Eval.run_with_inputs p [ ("a", [| 2; 3; 4 |]); ("b", [| 5; 6; 7 |]) ]
  in
  Alcotest.(check int) "sum of products" 56 (List.assoc "s" outs).(0)

let test_roundtrip_shift_ops () =
  let p =
    lower
      "program sh; input x; output a, b, c;\n\
       begin a = x << 2; b = x >> 1; c = (x & 12) | 1; end"
  in
  let outs = Ir.Eval.run_with_inputs p [ ("x", [| 13 |]) ] in
  Alcotest.(check int) "shl" 52 (List.assoc "a" outs).(0);
  Alcotest.(check int) "shr" 6 (List.assoc "b" outs).(0);
  Alcotest.(check int) "and-or" 13 (List.assoc "c" outs).(0)

let test_roundtrip_sat () =
  let p =
    lower "program st; input x; output y; begin y = sat(x * x); end"
  in
  let outs = Ir.Eval.run_with_inputs p [ ("x", [| 300 |]) ] in
  Alcotest.(check int) "saturated square" 32767 (List.assoc "y" outs).(0)

let suites =
  [
    ( "dfl.lexer",
      [
        Alcotest.test_case "basic tokens" `Quick test_lex_basic;
        Alcotest.test_case "keywords" `Quick test_lex_keywords;
        Alcotest.test_case "operators" `Quick test_lex_operators;
        Alcotest.test_case "comments" `Quick test_lex_comments;
        Alcotest.test_case "line numbers" `Quick test_lex_line_numbers;
        Alcotest.test_case "illegal char" `Quick test_lex_illegal;
        Alcotest.test_case "words extending a keyword" `Quick
          test_lex_keyword_words;
      ] );
    ( "dfl.parser",
      [
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "left associativity" `Quick test_parse_left_assoc;
        Alcotest.test_case "unary and sat" `Quick test_parse_unary_sat;
        Alcotest.test_case "declaration lists" `Quick test_parse_decl_lists;
        Alcotest.test_case "for loops" `Quick test_parse_for;
        Alcotest.test_case "syntax errors" `Quick test_parse_errors;
      ] );
    ( "dfl.lower",
      [
        Alcotest.test_case "parameters" `Quick test_lower_params;
        Alcotest.test_case "index forms" `Quick test_lower_indices;
        Alcotest.test_case "semantic errors" `Quick test_lower_errors;
        Alcotest.test_case "loop bounds" `Quick test_lower_loop_bounds;
      ] );
    ( "dfl.roundtrip",
      [
        Alcotest.test_case "sum of products" `Quick test_roundtrip_matrix_sum;
        Alcotest.test_case "shifts and bits" `Quick test_roundtrip_shift_ops;
        Alcotest.test_case "saturation" `Quick test_roundtrip_sat;
      ] );
  ]
