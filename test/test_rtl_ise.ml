(* Tests for the RT-netlist model, the RT simulator, instruction-set
   extraction, and compiler generation — including the cross-validation of
   generated compilers against the netlist itself. *)

let p comp port = { Rtl.Netlist.comp; port }

(* ---- Netlist well-formedness ----------------------------------------------- *)

let reg name = { Rtl.Comp.name; kind = Rtl.Comp.Register }
let field name lo hi = { Rtl.Comp.name; kind = Rtl.Comp.Field (lo, hi) }
let const name v = { Rtl.Comp.name; kind = Rtl.Comp.Constant v }

let expect_bad ~msg comps wires =
  match Rtl.Netlist.check { Rtl.Netlist.name = "t"; comps; wires } with
  | Error _ -> ()
  | Ok () -> Alcotest.fail msg

let test_netlist_checks () =
  (* Undriven input. *)
  expect_bad ~msg:"undriven input accepted" [ reg "r" ] [];
  (* Double driver. *)
  expect_bad ~msg:"double driver accepted"
    [ reg "r"; const "c0" 0; const "c1" 1 ]
    [
      (p "r" "d", p "c0" "out"); (p "r" "d", p "c1" "out");
      (p "r" "we", p "c1" "out");
    ];
  (* Wire to a nonexistent port. *)
  expect_bad ~msg:"bad port accepted"
    [ reg "r"; const "c" 1 ]
    [ (p "r" "d", p "c" "out"); (p "r" "ghost", p "c" "out");
      (p "r" "we", p "c" "out") ];
  (* Overlapping fields. *)
  expect_bad ~msg:"overlapping fields accepted"
    [ reg "r"; field "f1" 0 3; field "f2" 2 5 ]
    [ (p "r" "d", p "f1" "out"); (p "r" "we", p "f2" "out") ];
  (* Duplicate names. *)
  expect_bad ~msg:"duplicate names accepted"
    [ const "c" 0; const "c" 1 ]
    []

let test_samples_wellformed () =
  List.iter
    (fun net ->
      match Rtl.Netlist.check net with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" net.Rtl.Netlist.name msg)
    [ Rtl.Samples.acc16; Rtl.Samples.acc16_dualreg ]

let test_word_width () =
  Alcotest.(check int) "acc16 width" 18 (Rtl.Netlist.word_width Rtl.Samples.acc16);
  Alcotest.(check int) "dualreg width" 20
    (Rtl.Netlist.word_width Rtl.Samples.acc16_dualreg)

(* ---- Rtsim -------------------------------------------------------------------- *)

(* Hand-assemble an acc16 word from field values. *)
let acc16_word ?(opc = 0) ?(addr = 0) ?(imm = 0) ?(bsel = 0) ?(wacc = 0)
    ?(wmem = 0) () =
  opc lor (addr lsl 3) lor (imm lsl 9) lor (bsel lsl 15) lor (wacc lsl 16)
  lor (wmem lsl 17)

let test_rtsim_load_add_store () =
  let net = Rtl.Samples.acc16 in
  let st = Rtl.Rtsim.create net in
  Rtl.Rtsim.write_mem st "ram" 3 17;
  (* acc := ram[3]  (opc 5 = pass B, bsel 0 = memory) *)
  Rtl.Rtsim.step net st (acc16_word ~opc:5 ~addr:3 ~wacc:1 ());
  Alcotest.(check int) "load" 17 (Rtl.Rtsim.get_reg st "acc");
  (* acc := acc + #25 *)
  Rtl.Rtsim.step net st (acc16_word ~opc:0 ~imm:25 ~bsel:1 ~wacc:1 ());
  Alcotest.(check int) "add imm" 42 (Rtl.Rtsim.get_reg st "acc");
  (* ram[7] := acc *)
  Rtl.Rtsim.step net st (acc16_word ~addr:7 ~wmem:1 ());
  Alcotest.(check int) "store" 42 (Rtl.Rtsim.read_mem st "ram" 7)

let test_rtsim_no_write_enable () =
  let net = Rtl.Samples.acc16 in
  let st = Rtl.Rtsim.create net in
  Rtl.Rtsim.set_reg st "acc" 9;
  (* Neither we bit set: nothing changes. *)
  Rtl.Rtsim.step net st (acc16_word ~opc:0 ~imm:5 ~bsel:1 ());
  Alcotest.(check int) "acc unchanged" 9 (Rtl.Rtsim.get_reg st "acc")

let test_rtsim_bad_alu_code () =
  let net = Rtl.Samples.acc16 in
  let st = Rtl.Rtsim.create net in
  (* opc 7 has no ALU function in acc16; only fails if acc latches. *)
  match Rtl.Rtsim.step net st (acc16_word ~opc:7 ~wacc:1 ()) with
  | _ -> Alcotest.fail "expected ALU select error"
  | exception Invalid_argument _ -> ()

let test_rtsim_fault_injection () =
  let net = Rtl.Samples.acc16 in
  let st = Rtl.Rtsim.create net in
  Rtl.Rtsim.write_mem st "ram" 0 5;
  Rtl.Rtsim.step
    ~force:[ ({ Rtl.Netlist.comp = "alu"; port = "f" }, 0) ]
    net st
    (acc16_word ~opc:5 ~addr:0 ~wacc:1 ());
  Alcotest.(check int) "stuck-at-0 alu" 0 (Rtl.Rtsim.get_reg st "acc")

(* ---- Extraction ------------------------------------------------------------------ *)

let test_extract_counts () =
  (* 7 ALU functions x 2 B-sources (pass_a not in the table collapses one to
     the same expr per source) for acc, plus the memory store. *)
  Alcotest.(check int) "acc16 transfers" 15
    (List.length (Ise.Extract.run Rtl.Samples.acc16));
  (* dualreg: 8 functions x 2 A x 2 B with pass collapses, two register
     destinations, plus the store. *)
  Alcotest.(check int) "dualreg transfers" 57
    (List.length (Ise.Extract.run Rtl.Samples.acc16_dualreg))

let test_extract_settings_justified () =
  let transfers = Ise.Extract.run Rtl.Samples.acc16 in
  let t =
    List.find (fun (t : Ise.Transfer.t) -> t.name = "acc_acc_add_mem") transfers
  in
  Alcotest.(check (list (pair string int)))
    "settings"
    [ ("bsel", 0); ("opc", 0); ("wacc", 1); ("wmem", 0) ]
    t.settings;
  let store =
    List.find (fun (t : Ise.Transfer.t) -> t.name = "ram_acc") transfers
  in
  Alcotest.(check (list (pair string int)))
    "store quiesces acc"
    [ ("wacc", 0); ("wmem", 1) ]
    store.settings

let test_extract_names_unique () =
  let transfers = Ise.Extract.run Rtl.Samples.acc16_dualreg in
  let names = List.map (fun (t : Ise.Transfer.t) -> t.name) transfers in
  Alcotest.(check int) "unique" (List.length names)
    (List.length (List.sort_uniq compare names))

let test_encoding_bits () =
  let net = Rtl.Samples.acc16 in
  let transfers = Ise.Extract.run net in
  let t =
    List.find (fun (t : Ise.Transfer.t) -> t.name = "acc_acc_add_mem") transfers
  in
  (* 18 bits, LSB rightmost: wmem=0 wacc=1 bsel=0, addr/imm free, opc=000. *)
  Alcotest.(check string) "bit string" "010------------000"
    (Ise.Transfer.encoding net t)

let test_extract_prunes_const_conflict () =
  (* A register whose we is hardwired to 0 yields no transfers for it. *)
  let net =
    Rtl.Netlist.make ~name:"frozen"
      ~comps:
        [
          reg "r";
          { Rtl.Comp.name = "f"; kind = Rtl.Comp.Field (0, 3) };
          const "zero" 0;
        ]
      ~wires:[ (p "r" "d", p "f" "out"); (p "r" "we", p "zero" "out") ]
  in
  Alcotest.(check int) "no transfers" 0 (List.length (Ise.Extract.run net))

(* ---- Generated machines ------------------------------------------------------------ *)

let test_gen_machine_check () =
  List.iter
    (fun net ->
      let m = Ise.Gen.machine net in
      match Target.Machine.check m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" m.Target.Machine.name msg)
    [ Rtl.Samples.acc16; Rtl.Samples.acc16_dualreg ]

let test_gen_rules_roundtrip () =
  let transfers = Ise.Extract.run Rtl.Samples.acc16 in
  let rules = Ise.Gen.rules_of_transfers transfers in
  (* 14 register-destination rules + 1 spill rule. *)
  Alcotest.(check int) "rule count" 15 (List.length rules);
  Alcotest.(check bool) "spill present" true
    (List.exists (fun (r : Burg.Rule.t) -> r.lhs = "mem") rules)

(* Compile straight-line programs for the generated machine; compare the
   abstract simulator, the RT netlist, and the reference interpreter. *)
let crossvalidate prog inputs =
  let net = Rtl.Samples.acc16 in
  let machine = Ise.Gen.machine net in
  let compiled = Record.Pipeline.compile machine prog in
  let outs, _ = Record.Pipeline.execute compiled ~inputs in
  let st =
    Ise.Encode.run_on_netlist net ~layout:compiled.Record.Pipeline.layout
      ~inputs ~pool:compiled.Record.Pipeline.pool compiled.Record.Pipeline.asm
  in
  let expected = Ir.Eval.run_with_inputs prog inputs in
  List.for_all
    (fun (name, values) ->
      List.assoc name outs = values
      && Ise.Encode.read_var net st ~layout:compiled.Record.Pipeline.layout
           name
         = values)
    expected

let test_gen_compile_and_run_on_netlist () =
  let prog =
    Dfl.Lower.source
      "program t; input a, b, c; output u, v;\n\
       begin u = a * b - c; v = (a + b) * (a - c); end"
  in
  Alcotest.(check bool) "all three agree" true
    (crossvalidate prog [ ("a", [| 6 |]); ("b", [| -4 |]); ("c", [| 3 |]) ])

let gen_straightline =
  (* Random straight-line programs over three inputs and two outputs, with
     acc16-friendly constants (0..63). *)
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun k -> Ir.Tree.Const k) (int_range 0 63);
        map Ir.Tree.var (oneofl [ "a"; "b"; "c" ]);
      ]
  in
  let tree =
    sized
      (fix (fun self n ->
           if n = 0 then leaf
           else
             oneof
               [
                 leaf;
                 map2
                   (fun op (x, y) -> Ir.Tree.Binop (op, x, y))
                   (oneofl Ir.Op.[ Add; Sub; Mul; And; Or; Xor ])
                   (pair (self (n / 2)) (self (n / 2)));
               ]))
  in
  list_size (int_range 1 4)
    (map2
       (fun d t -> Ir.Prog.assign (Ir.Mref.scalar d) t)
       (oneofl [ "u"; "v" ]) tree)

let prop_generated_machine_faithful =
  QCheck.Test.make
    ~name:"generated compiler: simulator == netlist == interpreter" ~count:100
    (QCheck.make
       ~print:(fun body ->
         Format.asprintf "%a" Ir.Prog.pp
           { Ir.Prog.name = "rand"; decls = []; body })
       gen_straightline)
    (fun body ->
      let decls =
        [
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "c";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "u";
          Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "v";
        ]
      in
      let prog = Ir.Prog.make ~name:"rand" ~decls body in
      crossvalidate prog [ ("a", [| 11 |]); ("b", [| -7 |]); ("c", [| 23 |]) ])

let test_gen_rejects_loops () =
  let prog =
    Dfl.Lower.source
      "program t; input a[4]; output y; var acc;\n\
       begin acc = 0; for i = 0 to 3 do acc = acc + a[i]; end; y = acc; end"
  in
  let machine = Ise.Gen.machine Rtl.Samples.acc16 in
  Alcotest.check_raises "pipeline error"
    (Record.Pipeline.Error "acc16: no loop control declared") (fun () ->
      ignore (Record.Pipeline.compile machine prog))

let suites =
  [
    ( "rtl.netlist",
      [
        Alcotest.test_case "well-formedness checks" `Quick test_netlist_checks;
        Alcotest.test_case "samples well-formed" `Quick test_samples_wellformed;
        Alcotest.test_case "word width" `Quick test_word_width;
      ] );
    ( "rtl.rtsim",
      [
        Alcotest.test_case "load/add/store" `Quick test_rtsim_load_add_store;
        Alcotest.test_case "write enables" `Quick test_rtsim_no_write_enable;
        Alcotest.test_case "bad ALU code" `Quick test_rtsim_bad_alu_code;
        Alcotest.test_case "fault injection" `Quick test_rtsim_fault_injection;
      ] );
    ( "ise.extract",
      [
        Alcotest.test_case "transfer counts" `Quick test_extract_counts;
        Alcotest.test_case "settings justified" `Quick
          test_extract_settings_justified;
        Alcotest.test_case "unique names" `Quick test_extract_names_unique;
        Alcotest.test_case "bit encodings" `Quick test_encoding_bits;
        Alcotest.test_case "constant conflicts pruned" `Quick
          test_extract_prunes_const_conflict;
      ] );
    ( "ise.gen",
      [
        Alcotest.test_case "generated machines check" `Quick test_gen_machine_check;
        Alcotest.test_case "iburg conversion" `Quick test_gen_rules_roundtrip;
        Alcotest.test_case "compile and run on netlist" `Quick
          test_gen_compile_and_run_on_netlist;
        Alcotest.test_case "loops rejected" `Quick test_gen_rejects_loops;
        QCheck_alcotest.to_alcotest prop_generated_machine_faithful;
      ] );
  ]

(* ---- The MAC datapath (chained ALUs, heterogeneous registers) ------------- *)

let test_mac16_extraction () =
  let transfers = Ise.Extract.run Rtl.Samples.mac16 in
  Alcotest.(check int) "eight transfers" 8 (List.length transfers);
  let names = List.map (fun (t : Ise.Transfer.t) -> t.name) transfers in
  Alcotest.(check bool) "MAC extracted" true
    (List.mem "acc_acc_add_treg_mul_mem" names);
  Alcotest.(check bool) "MAC-subtract extracted" true
    (List.mem "acc_acc_sub_treg_mul_mem" names);
  Alcotest.(check bool) "treg load extracted" true (List.mem "treg_mem" names)

let test_mac16_deep_pattern () =
  (* The generated grammar contains the depth-2 MAC pattern. *)
  let machine = Ise.Gen.machine Rtl.Samples.mac16 in
  let mac =
    List.find
      (fun (r : Burg.Rule.t) -> r.name = "acc_acc_add_treg_mul_mem")
      machine.Target.Machine.grammar.Burg.Grammar.rules
  in
  Alcotest.(check int) "pattern depth" 3 (Burg.Pattern.depth mac.pattern)

let test_mac16_compiles_mac_sequences () =
  let machine = Ise.Gen.machine Rtl.Samples.mac16 in
  let prog =
    Dfl.Lower.source
      "program t; input a, b, c; output u; begin u = c + a * b; end"
  in
  let compiled = Record.Pipeline.compile machine prog in
  let ops = ref [] in
  Target.Asm.iter
    (fun i -> ops := i.Target.Instr.opcode :: !ops)
    compiled.Record.Pipeline.asm;
  Alcotest.(check bool) "uses the MAC instruction" true
    (List.mem "acc_acc_add_treg_mul_mem" !ops);
  (* ... and runs correctly on the netlist. *)
  let inputs = [ ("a", [| 6 |]); ("b", [| 7 |]); ("c", [| 5 |]) ] in
  let st =
    Ise.Encode.run_on_netlist Rtl.Samples.mac16
      ~layout:compiled.Record.Pipeline.layout ~inputs
      ~pool:compiled.Record.Pipeline.pool compiled.Record.Pipeline.asm
  in
  Alcotest.(check (array int)) "netlist result" [| 47 |]
    (Ise.Encode.read_var Rtl.Samples.mac16 st
       ~layout:compiled.Record.Pipeline.layout "u")

let test_mac16_selftest () =
  let suite = Selftest.generate Rtl.Samples.mac16 in
  (* treg has no direct observation path: honestly reported untestable. *)
  Alcotest.(check (list string)) "untestable" [ "treg_mem" ]
    suite.Selftest.untestable;
  List.iter
    (fun (name, ok) ->
      if not ok then Alcotest.failf "mac16 case %s fails" name)
    (Selftest.run suite)

let mac16_suites =
  [
    ( "ise.mac16",
      [
        Alcotest.test_case "extraction through chained ALUs" `Quick
          test_mac16_extraction;
        Alcotest.test_case "deep MAC pattern" `Quick test_mac16_deep_pattern;
        Alcotest.test_case "compiles and runs MAC code" `Quick
          test_mac16_compiles_mac_sequences;
        Alcotest.test_case "self-test generation" `Quick test_mac16_selftest;
      ] );
  ]

let suites = suites @ mac16_suites
