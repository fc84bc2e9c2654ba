(* The textual machine-description language (§4.4, nML-style). *)

let simple16 =
  {|
machine simple16
description "test machine"

register acc
register t
counter idx 4
agu 3

rule ld    acc <- mem
rule st    mem <- acc
rule ldi   acc <- imm8
rule zero  acc <- 0
rule add   acc <- add(acc, mem)
rule sub   acc <- sub(acc, mem)
rule lt    t   <- mem
rule mpy   acc <- mul(t, mem)
rule mac   acc <- add(acc, mul(t, mem))
|}

let test_parse_transfers () =
  let ts = Mdl.transfers simple16 in
  Alcotest.(check int) "nine rules" 9 (List.length ts);
  let mac = List.find (fun (t : Ise.Transfer.t) -> t.name = "mac") ts in
  (match mac.expr with
  | Ise.Transfer.Binop
      ( Ir.Op.Add,
        Ise.Transfer.Leaf (Ise.Transfer.Reg "acc"),
        Ise.Transfer.Binop
          ( Ir.Op.Mul,
            Ise.Transfer.Leaf (Ise.Transfer.Reg "t"),
            Ise.Transfer.Leaf (Ise.Transfer.Mem_direct _) ) ) ->
    ()
  | _ -> Alcotest.fail "mac expression shape");
  let st = List.find (fun (t : Ise.Transfer.t) -> t.name = "st") ts in
  match st.dest with
  | Ise.Transfer.Dmem _ -> ()
  | Ise.Transfer.Dreg _ -> Alcotest.fail "store destination"

let test_machine_checks () =
  let m = Mdl.load simple16 in
  (match Target.Machine.check m with
  | Ok () -> ()
  | Error msg -> Alcotest.fail msg);
  Alcotest.(check string) "name" "simple16" m.Target.Machine.name

let test_compiles_kernels () =
  let machine = Mdl.load simple16 in
  List.iter
    (fun name ->
      let k = Dspstone.Kernels.find name in
      let prog = Dspstone.Kernels.prog k in
      let c = Record.Pipeline.compile machine prog in
      let outs, _ = Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs in
      let expected = Dspstone.Kernels.reference_outputs k in
      List.iter
        (fun (n, v) -> Alcotest.(check (array int)) (name ^ "/" ^ n) v (List.assoc n outs))
        expected)
    [ "dot_product"; "complex_multiply"; "complex_update"; "convolution" ]

let test_imm_guard () =
  (* ldi is 8-bit unsigned: 255 goes through the immediate form (no pool
     cell); 300 exceeds it and comes from a pre-initialized pool cell. *)
  let machine = Mdl.load simple16 in
  let compile k =
    let prog =
      Ir.Prog.make ~name:"imm"
        ~decls:[ Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y" ]
        [ Ir.Prog.assign (Ir.Mref.scalar "y") (Ir.Tree.const k) ]
    in
    Record.Pipeline.compile machine prog
  in
  let c = compile 255 in
  let outs, _ = Record.Pipeline.execute c ~inputs:[] in
  Alcotest.(check int) "255 loads" 255 (List.assoc "y" outs).(0);
  Alcotest.(check int) "no pool cell" 0 (List.length c.Record.Pipeline.pool);
  let c2 = compile 300 in
  let outs2, _ = Record.Pipeline.execute c2 ~inputs:[] in
  Alcotest.(check int) "300 via pool" 300 (List.assoc "y" outs2).(0);
  Alcotest.(check bool) "pool cell" true
    (List.exists (fun (_, v) -> v = 300) c2.Record.Pipeline.pool)

let test_no_counter_rejects_loops () =
  let loopless =
    {|
machine nolo
register acc
rule ld  acc <- mem
rule st  mem <- acc
rule ldi acc <- imm8
rule add acc <- add(acc, mem)
|}
  in
  let machine = Mdl.load loopless in
  let prog =
    Dfl.Lower.source
      "program l; input a[4]; output y; var s;\n\
       begin s = 0; for i = 0 to 3 do s = s + a[i]; end; y = s; end"
  in
  Alcotest.check_raises "pipeline error"
    (Record.Pipeline.Error "nolo: no loop control declared") (fun () ->
      ignore (Record.Pipeline.compile machine prog))

let expect_error src =
  match Mdl.load src with
  | _ -> Alcotest.failf "accepted: %s" src
  | exception Mdl.Error _ -> ()
  | exception Ise.Gen.Unsupported _ -> ()

let test_errors () =
  expect_error "register acc\nrule ld acc <- mem";  (* no machine line *)
  expect_error "machine m\nrule ld acc <- mem";  (* undeclared register *)
  expect_error "machine m\nregister acc\nrule ld acc <- mem\nrule ld acc <- mem";
  expect_error "machine m\nregister acc\nrule ld acc <- frob(acc, mem)";
  expect_error "machine m\nregister acc\nagu 3\nrule ld acc <- mem";
  expect_error "machine m\nregister mem\nrule ld mem <- mem";
  (* incomplete sets *)
  expect_error "machine m\nregister acc\nrule ld acc <- mem";  (* no store *)
  expect_error "machine m\nregister acc\nrule st mem <- acc"  (* no load *)

let test_comments_and_layout () =
  let noisy =
    "# header\nmachine m  # trailing\n\nregister acc\n\n"
    ^ "rule ld acc <- mem # load\nrule st mem <- acc\n"
  in
  let m = Mdl.load noisy in
  Alcotest.(check string) "name" "m" m.Target.Machine.name

let suites =
  [
    ( "mdl",
      [
        Alcotest.test_case "transfers parse" `Quick test_parse_transfers;
        Alcotest.test_case "machine well-formed" `Quick test_machine_checks;
        Alcotest.test_case "kernels compile and validate" `Quick
          test_compiles_kernels;
        Alcotest.test_case "immediate width guard" `Quick test_imm_guard;
        Alcotest.test_case "loops need a counter" `Quick
          test_no_counter_rejects_loops;
        Alcotest.test_case "description errors" `Quick test_errors;
        Alcotest.test_case "comments and blank lines" `Quick
          test_comments_and_layout;
      ] );
  ]

let test_rule_attributes () =
  (* A software multiply declared as 2 words / 20 cycles: the matcher
     prefers cheaper covers by word cost, and timing sees the cycles. *)
  let m =
    Mdl.load
      "machine attrib\nregister acc\nregister t\n\
       rule ld acc <- mem\nrule st mem <- acc\nrule ldi acc <- imm8\n\
       rule add acc <- add(acc, mem)\n\
       rule lt t <- mem\n\
       rule mulsoft acc <- mul(t, mem) cost 2 cycles 20"
  in
  let mul_rule =
    List.find
      (fun (r : Burg.Rule.t) -> r.name = "mulsoft")
      m.Target.Machine.grammar.Burg.Grammar.rules
  in
  Alcotest.(check int) "rule cost is words" 2 mul_rule.cost;
  let prog =
    Dfl.Lower.source
      "program a; input x, y; output z; begin z = x * y; end"
  in
  let c = Record.Pipeline.compile m prog in
  let outs, cycles =
    Record.Pipeline.execute c ~inputs:[ ("x", [| 6 |]); ("y", [| 7 |]) ]
  in
  Alcotest.(check int) "product" 42 (List.assoc "z" outs).(0);
  Alcotest.(check bool) "slow multiply visible in cycles" true (cycles >= 20);
  Alcotest.(check int) "static timing agrees" cycles (Record.Timing.cycles c)

let attr_suite =
  ( "mdl.attributes",
    [ Alcotest.test_case "cost and cycles" `Quick test_rule_attributes ] )

let suites = suites @ [ attr_suite ]
