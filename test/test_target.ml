(* Tests for the target layer: instructions, register files, layout, machine
   state, structured assembly, classification, and the bundled machines. *)

let all_machines =
  [
    Target.Tic25.machine;
    Target.Dsp56.machine;
    Target.Risc32.machine;
    Target.Asip.machine Target.Asip.default;
  ]

(* ---- Instr ---------------------------------------------------------------- *)

let test_instr_printing () =
  let i =
    Target.Instr.make "ADD"
      ~operands:
        [
          Target.Instr.Dir (Ir.Mref.scalar "x");
          Target.Instr.Ind (Target.Instr.reg "ar" 3, Target.Instr.Post_inc, None);
          Target.Instr.Imm 7;
        ]
  in
  Alcotest.(check string) "printing" "ADD    x, *ar3+, #7"
    (Target.Instr.to_string i)

let test_instr_map_operands () =
  let i =
    Target.Instr.make "ST"
      ~operands:[ Target.Instr.vreg "acc" 0 ]
      ~defs:[ Target.Instr.vreg "acc" 0 ]
      ~uses:[ Target.Instr.Ind (Target.Instr.vreg "ar" 1, Target.Instr.No_update, None) ]
  in
  let mapped =
    Target.Instr.map_operands
      (fun o ->
        match o with
        | Target.Instr.Vreg v ->
          Target.Instr.Reg { Target.Instr.cls = v.vcls; idx = 5 }
        | _ -> o)
      i
  in
  (* The AR inside the indirect operand is rewritten too. *)
  match mapped.Target.Instr.uses with
  | [ Target.Instr.Ind (Target.Instr.Reg { cls = "ar"; idx = 5 }, _, _) ] -> ()
  | _ -> Alcotest.fail "indirect register not rewritten"

let test_regfile_errors () =
  Alcotest.check_raises "dup class"
    (Invalid_argument "Regfile.make: duplicate class a") (fun () ->
      ignore
        (Target.Regfile.make
           [
             { Target.Regfile.cls_name = "a"; count = 1; role = "" };
             { Target.Regfile.cls_name = "a"; count = 2; role = "" };
           ]))

(* ---- Layout ---------------------------------------------------------------- *)

let test_layout_addresses () =
  let l =
    Target.Layout.make ~banks:[ "x"; "y" ]
      [ ("a", 4, "x"); ("b", 2, "y"); ("c", 1, "x") ]
  in
  (* x-bank first in declaration order, then y. *)
  Alcotest.(check int) "a at 0" 0 (Target.Layout.find l "a").Target.Layout.addr;
  Alcotest.(check int) "c after a" 4 (Target.Layout.find l "c").Target.Layout.addr;
  Alcotest.(check int) "b in y region" 5 (Target.Layout.find l "b").Target.Layout.addr;
  Alcotest.(check int) "total" 7 (Target.Layout.total_size l);
  Alcotest.(check string) "bank of b" "y"
    (Target.Layout.bank_of_ref l (Ir.Mref.elem "b" 1));
  Alcotest.(check int) "elem address" 2
    (Target.Layout.address l (Ir.Mref.elem "a" 2) ~ienv:[]);
  Alcotest.(check int) "induct address" 3
    (Target.Layout.address l (Ir.Mref.induct "a" ~ivar:"i" ~offset:1) ~ienv:[ ("i", 2) ]);
  Alcotest.(check int) "descending base" 3
    (Target.Layout.base_address l (Ir.Mref.induct ~offset:3 ~step:(-1) "a" ~ivar:"i"))

let test_layout_errors () =
  let l = Target.Layout.make ~banks:[ "data" ] [ ("a", 2, "data") ] in
  Alcotest.check_raises "oob"
    (Invalid_argument "Layout.address: a[5] index 5 out of bounds") (fun () ->
      ignore (Target.Layout.address l (Ir.Mref.elem "a" 5) ~ienv:[]));
  (match Target.Layout.make ~banks:[ "data" ] [ ("a", 1, "ghost") ] with
  | _ -> Alcotest.fail "unknown bank accepted"
  | exception Invalid_argument _ -> ())

(* ---- Mstate ------------------------------------------------------------------ *)

let mstate () =
  let l = Target.Layout.make ~banks:[ "data" ] [ ("v", 4, "data") ] in
  Target.Mstate.create ~layout:l ~modes:[ ("m", 0) ] ()

let test_mstate_wrap_on_store () =
  let st = mstate () in
  Target.Mstate.store st 0 40000;
  Alcotest.(check int) "wrapped" (40000 - 65536) (Target.Mstate.load st 0)

let test_mstate_postinc () =
  let st = mstate () in
  let ar = { Target.Instr.cls = "ar"; idx = 0 } in
  Target.Mstate.set_reg st ar 1;
  Target.Mstate.store st 1 42;
  let ind u = Target.Instr.Ind (Target.Instr.Reg ar, u, None) in
  let read op = Target.Mstate.reader st.Target.Mstate.layout op st in
  let v = read (ind Target.Instr.Post_inc) in
  Alcotest.(check int) "value" 42 v;
  (* post-modify is deferred to the instruction boundary: a second operand
     of the same instruction still sees the pre-instruction register *)
  Alcotest.(check int) "not yet applied" 1 (Target.Mstate.get_reg st ar);
  Alcotest.(check int) "same addr within instr" 42
    (read (ind Target.Instr.No_update));
  Target.Mstate.apply_updates st;
  Alcotest.(check int) "incremented at boundary" 2 (Target.Mstate.get_reg st ar);
  ignore (read (ind Target.Instr.Post_dec));
  Target.Mstate.apply_updates st;
  Alcotest.(check int) "decremented back" 1 (Target.Mstate.get_reg st ar)

let test_mstate_adr_operand () =
  let st = mstate () in
  Alcotest.(check int) "address of v[2]" 2
    (Target.Mstate.reader st.Target.Mstate.layout
       (Target.Instr.Adr (Ir.Mref.elem "v" 2))
       st)

let test_mstate_vreg_rejected () =
  let st = mstate () in
  Alcotest.check_raises "vreg"
    (Invalid_argument "Mstate: virtual register reached the simulator")
    (fun () ->
      ignore
        (Target.Mstate.reader st.Target.Mstate.layout
           (Target.Instr.vreg "acc" 0)
           st))

let test_mstate_vars () =
  let st = mstate () in
  Target.Mstate.set_var st "v" [| 1; 2; 3; 4 |];
  Alcotest.(check (array int)) "roundtrip" [| 1; 2; 3; 4 |]
    (Target.Mstate.get_var st "v")

let test_mstate_writes_stay_inside () =
  let l =
    Target.Layout.make ~banks:[ "data" ] [ ("v", 4, "data"); ("w", 2, "data") ]
  in
  let st = Target.Mstate.create ~layout:l ~modes:[] () in
  Target.Mstate.set_var st "w" [| 8; 9 |];
  Alcotest.check_raises "one value too many"
    (Invalid_argument "Mstate: v holds 4 values, got 5") (fun () ->
      Target.Mstate.set_var st "v" [| 1; 2; 3; 4; 5 |]);
  Alcotest.check_raises "through a resolved entry too"
    (Invalid_argument "Mstate: v holds 4 values, got 6") (fun () ->
      Target.Mstate.blit_entry st (Target.Layout.find l "v")
        [| 1; 2; 3; 4; 5; 6 |]);
  Alcotest.(check (array int)) "the next variable is untouched" [| 8; 9 |]
    (Target.Mstate.get_var st "w");
  (* past 256 words the state's memory is allocated in the major heap *)
  let l =
    Target.Layout.make ~banks:[ "data" ]
      [ ("v", 300, "data"); ("w", 2, "data") ]
  in
  let st = Target.Mstate.create ~layout:l ~modes:[] () in
  Target.Mstate.set_var st "w" [| 8; 9 |];
  Alcotest.check_raises "one value too many on a long layout"
    (Invalid_argument "Mstate: v holds 300 values, got 301") (fun () ->
      Target.Mstate.set_var st "v" (Array.init 301 (fun i -> i + 1)));
  Alcotest.(check (array int)) "the next variable is still untouched"
    [| 8; 9 |]
    (Target.Mstate.get_var st "w");
  let long = Array.init 300 (fun i -> i - 150) in
  Target.Mstate.set_var st "v" long;
  Alcotest.(check (array int)) "a long variable round-trips" long
    (Target.Mstate.get_var st "v")

(* ---- Asm ----------------------------------------------------------------------- *)

let test_asm_accounting () =
  let one = Target.Instr.make "A" in
  let two = Target.Instr.make "B" ~words:2 ~cycles:2 in
  let asm =
    Target.Asm.make ~name:"t"
      [
        Target.Asm.Op one;
        Target.Asm.Par [ one; one ];
        Target.Asm.Loop
          { ivar = None; count = 3; body = [ Target.Asm.Op two ] };
      ]
  in
  Alcotest.(check int) "words: 1 + 1 (par) + 2" 4 (Target.Asm.words asm);
  Alcotest.(check int) "instr count" 4 (Target.Asm.instr_count asm);
  let counts = Target.Asm.flatten_counts asm in
  Alcotest.(check int) "loop body count" 3
    (snd (List.nth counts 3))

(* ---- Modes ---------------------------------------------------------------------- *)

let tic25 = Target.Tic25.machine
let clobbers = Target.Modes.clobbers tic25
let reset = Target.Modes.reset tic25
let knowledge = Alcotest.(list (pair string int))
let known k = Target.Modes.Smap.bindings k
let needs v = Target.Instr.make "ADD" ~mode_req:("ovm", v)
let loop count body = Target.Asm.Loop { ivar = None; count; body }

let test_modes_requirement_known () =
  Alcotest.check knowledge "reset" [ ("ovm", 0) ] (known reset);
  Alcotest.check knowledge "after an unknown entry" [ ("ovm", 1) ]
    (known (Target.Modes.after clobbers Target.Modes.Smap.empty (needs 1)));
  Alcotest.check knowledge "after a violated one" [ ("ovm", 1) ]
    (known (Target.Modes.after clobbers reset (needs 1)))

let test_modes_bare_change_forgets () =
  Alcotest.(check (list string))
    "clobbers" [ "ROVM"; "SOVM" ]
    (List.sort_uniq compare clobbers);
  List.iter
    (fun opcode ->
      Alcotest.check knowledge (opcode ^ " bare") []
        (known
           (Target.Modes.after clobbers reset (Target.Instr.make opcode))))
    [ "SOVM"; "ROVM" ];
  Alcotest.check knowledge "SOVM with its mode_set" [ ("ovm", 1) ]
    (known
       (Target.Modes.after clobbers reset
          (tic25.Target.Machine.mode_change "ovm" 1)))

let test_modes_loop_entry () =
  let entry body = known (Target.Modes.loop_entry clobbers reset body) in
  let rovm = tic25.Target.Machine.mode_change "ovm" 0 in
  Alcotest.check knowledge "a trip keeps ovm=0" [ ("ovm", 0) ]
    (entry [ Target.Asm.Op (needs 0) ]);
  Alcotest.check knowledge "a trip leaves ovm=1" []
    (entry [ Target.Asm.Op (needs 1) ]);
  Alcotest.check knowledge "a trip restores ovm=0" [ ("ovm", 0) ]
    (entry [ Target.Asm.Op (needs 1); Target.Asm.Op rovm ]);
  Alcotest.check knowledge "a bare ROVM in the trip" []
    (entry [ Target.Asm.Op (Target.Instr.make "ROVM") ])

let test_modes_dead_loop () =
  let entry count =
    known
      (Target.Modes.loop_entry clobbers reset
         [ loop count [ Target.Asm.Op (needs 1) ] ])
  in
  Alcotest.check knowledge "an inner loop of count 0" [ ("ovm", 0) ]
    (entry 0);
  Alcotest.check knowledge "of count -1" [ ("ovm", 0) ] (entry (-1));
  Alcotest.check knowledge "of count 1" [] (entry 1)

(* ---- Classify ------------------------------------------------------------------- *)

let test_classify_corners () =
  let name avail dom app =
    Target.Classify.corner_name
      { Target.Classify.availability = avail; domain = dom; application = app }
  in
  Alcotest.(check string) "off the shelf" "off-the-shelf processor"
    (name Target.Classify.Package Target.Classify.General_purpose
       Target.Classify.Fixed_architecture);
  Alcotest.(check string) "dsp core" "DSP core"
    (name Target.Classify.Core Target.Classify.Dsp
       Target.Classify.Fixed_architecture);
  Alcotest.(check string) "assp core" "ASSP core"
    (name Target.Classify.Core Target.Classify.Dsp Target.Classify.Asip)

(* ---- Machines ------------------------------------------------------------------- *)

let test_machines_check () =
  List.iter
    (fun (m : Target.Machine.t) ->
      match Target.Machine.check m with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "%s: %s" m.name msg)
    all_machines

let test_machine_grammar_starts () =
  List.iter
    (fun (m : Target.Machine.t) ->
      (* Every machine must cover a bare variable reference. *)
      let matcher = Burg.Matcher.create m.grammar in
      match Burg.Matcher.best matcher (Ir.Tree.var "x") with
      | Some _ -> ()
      | None -> Alcotest.failf "%s cannot load a variable" m.name)
    all_machines

let test_machine_grammar_complete_for_ops () =
  (* All machines cover all binary operators over variables (possibly via
     spills); sat coverage too. *)
  List.iter
    (fun (m : Target.Machine.t) ->
      let matcher = Burg.Matcher.create m.grammar in
      List.iter
        (fun op ->
          let t = Ir.Tree.Binop (op, Ir.Tree.var "x", Ir.Tree.var "y") in
          match Burg.Matcher.best matcher t with
          | Some _ -> ()
          | None ->
            Alcotest.failf "%s cannot cover %s" m.name (Ir.Op.binop_name op))
        Ir.Op.[ Add; Sub; Mul; And; Or; Xor ];
      match Burg.Matcher.best matcher (Ir.Tree.sat (Ir.Tree.var "x")) with
      | Some _ -> ()
      | None -> Alcotest.failf "%s cannot cover sat" m.name)
    all_machines

let test_tic25_exec_semantics () =
  let l = Target.Layout.make ~banks:[ "data" ] [ ("m", 1, "data") ] in
  let st = Target.Mstate.create ~layout:l ~modes:[ ("ovm", 0) ] () in
  Target.Mstate.set_var st "m" [| 7 |];
  let exec = Target.Machine.exec Target.Tic25.machine in
  exec st (Target.Instr.make "LACK" ~operands:[ Target.Instr.Imm 100 ]);
  exec st (Target.Instr.make "ADD" ~operands:[ Target.Instr.Dir (Ir.Mref.scalar "m") ]);
  Alcotest.(check int) "acc" 107 (Target.Mstate.get_reg st Target.Tic25.acc);
  exec st (Target.Instr.make "LT" ~operands:[ Target.Instr.Dir (Ir.Mref.scalar "m") ]);
  exec st (Target.Instr.make "MPYK" ~operands:[ Target.Instr.Imm (-3) ]);
  exec st (Target.Instr.make "APAC");
  Alcotest.(check int) "mac" 86 (Target.Mstate.get_reg st Target.Tic25.acc);
  (* Saturation under ovm. *)
  Target.Mstate.set_mode st "ovm" 1;
  Target.Mstate.set_reg st Target.Tic25.acc 32700;
  exec st (Target.Instr.make "ADDK" ~operands:[ Target.Instr.Imm 255 ]);
  Alcotest.(check int) "saturated" 32767
    (Target.Mstate.get_reg st Target.Tic25.acc)

let test_tic25_dmov () =
  let l = Target.Layout.make ~banks:[ "data" ] [ ("w", 2, "data") ] in
  let st = Target.Mstate.create ~layout:l ~modes:[] () in
  Target.Mstate.set_var st "w" [| 5; 0 |];
  Target.Machine.exec Target.Tic25.machine st
    (Target.Instr.make "DMOV" ~operands:[ Target.Instr.Dir (Ir.Mref.scalar "w") ]);
  Alcotest.(check (array int)) "delay line" [| 5; 5 |]
    (Target.Mstate.get_var st "w")

let test_tic25_unknown_opcode () =
  let l = Target.Layout.make ~banks:[ "data" ] [ ("m", 1, "data") ] in
  let st = Target.Mstate.create ~layout:l ~modes:[] () in
  Alcotest.check_raises "unknown" (Invalid_argument "tic25: cannot execute XYZ")
    (fun () ->
      Target.Machine.exec Target.Tic25.machine st (Target.Instr.make "XYZ"))

let test_asip_param_validation () =
  let bad f =
    match Target.Asip.machine f with
    | _ -> Alcotest.fail "invalid parameters accepted"
    | exception Invalid_argument _ -> ()
  in
  bad { Target.Asip.default with Target.Asip.accumulators = 3 };
  bad { Target.Asip.default with Target.Asip.imm_bits = 2 };
  bad { Target.Asip.default with Target.Asip.address_regs = 1 }

let test_asip_feature_grammars () =
  (* MAC pattern only present when the parameter is on. *)
  let has_rule (m : Target.Machine.t) name =
    List.exists
      (fun (r : Burg.Rule.t) -> r.name = name)
      m.grammar.Burg.Grammar.rules
  in
  let with_mac = Target.Asip.machine Target.Asip.default in
  let without =
    Target.Asip.machine { Target.Asip.default with Target.Asip.has_mac = false }
  in
  Alcotest.(check bool) "mac present" true (has_rule with_mac "mac");
  Alcotest.(check bool) "mac absent" false (has_rule without "mac");
  let soft =
    Target.Asip.machine
      { Target.Asip.default with Target.Asip.has_multiplier = false; has_mac = false }
  in
  Alcotest.(check bool) "soft multiply" true (has_rule soft "mul_soft")

(* ---- The pattern-driven emitter ---------------------------------------- *)

(* A printed instruction shows its opcode and operands only; the
   comparison is on every field. *)
let instrs = Alcotest.(list (testable Target.Instr.pp ( = )))

let vreg vcls vid = { Target.Instr.vcls; vid }
let cell = Ir.Mref.scalar "m"

(* Runs an emitter on a fresh context: its value and its instructions. *)
let emitted ((_, emit) : Burg.Rule.t * Target.Machine.emitter) node children =
  let ctx = Target.Machine.create_ctx () in
  let v = emit ctx node children in
  (v, Target.Machine.drain ctx)

type emitter_case = {
  label : string;
  rule : Burg.Rule.t;
  opcode : string;
  mode_req : (string * int) option;  (** what the description passes *)
  node : Ir.Tree.t;
  children : Target.Machine.value list;
  expected : Target.Instr.t;
      (** what the hand-written emitter that [Machine.instr] replaced
          built; the new register is the context's first, id 0 *)
  misfits : (Ir.Tree.t * Target.Machine.value list) list;
}

(* One rule per leaf kind, from the descriptions and a generated
   machine. *)
let emitter_cases =
  let open Target in
  let rule = Burg.Rule.make and nt n = Burg.Pattern.Nonterm n in
  let add a b = Ir.Tree.Binop (Ir.Op.Add, a, b) in
  let a = Ir.Tree.var "a" and b = Ir.Tree.var "b" in
  let reg cls vid = Machine.Vreg (vreg cls vid) in
  let use cls vid = Instr.Vreg (vreg cls vid) in
  [
    {
      label = "register children (risc32 add)";
      rule =
        rule ~name:"add" ~lhs:"g" ~cost:1
          (Burg.Pattern.Binop (Ir.Op.Add, nt "g", nt "g"));
      opcode = "ADD";
      mode_req = None;
      node = add a b;
      children = [ reg "g" 10; reg "g" 11 ];
      expected =
        Instr.make "ADD" ~defs:[ use "g" 0 ] ~uses:[ use "g" 10; use "g" 11 ];
      misfits =
        [
          (add a b, [ reg "g" 10 ]);
          (add a b, [ reg "g" 10; Machine.Mem cell ]);
        ];
    };
    {
      label = "a memory child (asip add)";
      rule =
        rule ~name:"add" ~lhs:"acc" ~cost:1
          (Burg.Pattern.Binop (Ir.Op.Add, nt "acc", nt "mem"));
      opcode = "ADD";
      mode_req = None;
      node = add a (Ir.Tree.var "m");
      children = [ reg "acc" 10; Machine.Mem cell ];
      expected =
        Instr.make "ADD"
          ~operands:[ Instr.Dir cell ]
          ~defs:[ use "acc" 0 ]
          ~uses:[ use "acc" 10; Instr.Dir cell ];
      misfits =
        [
          (add a b, [ reg "acc" 10; reg "acc" 11 ]);
          (add a b, [ reg "acc" 10; Machine.Mem cell; Machine.Mem cell ]);
        ];
    };
    {
      label = "a saturated constant (tic25 sat_addk)";
      rule =
        rule ~name:"sat_addk" ~lhs:"acc" ~cost:1
          (Burg.Pattern.Unop
             (Ir.Op.Sat, Burg.Pattern.Binop (Ir.Op.Add, nt "acc", Const_any)));
      opcode = "ADDK";
      mode_req = Some ("ovm", 1);
      node = Ir.Tree.sat (add a (Ir.Tree.const 7));
      children = [ reg "acc" 10 ];
      expected =
        Instr.make "ADDK"
          ~operands:[ Instr.Imm 7 ]
          ~defs:[ use "acc" 0 ]
          ~uses:[ use "acc" 10 ]
          ~mode_req:("ovm", 1);
      misfits =
        [
          (Ir.Tree.sat (add a b), [ reg "acc" 10 ]);
          (Ir.Tree.sat (add a (Ir.Tree.const 7)), [ Machine.Mem cell ]);
        ];
    };
    {
      label = "a hard-wired constant (generated inc)";
      rule =
        rule ~name:"inc" ~lhs:"acc" ~cost:1
          (Burg.Pattern.Binop (Ir.Op.Add, nt "acc", Const_eq 1));
      opcode = "inc";
      mode_req = None;
      node = add a (Ir.Tree.const 1);
      children = [ reg "acc" 10 ];
      expected = Instr.make "inc" ~defs:[ use "acc" 0 ] ~uses:[ use "acc" 10 ];
      misfits = [ (add a (Ir.Tree.const 1), []) ];
    };
    {
      label = "a nested binop (dsp56 mac)";
      rule =
        rule ~name:"mac" ~lhs:"acc" ~cost:1
          (Burg.Pattern.Binop
             ( Ir.Op.Add,
               nt "acc",
               Burg.Pattern.Binop (Ir.Op.Mul, nt "xy", nt "xy") ));
      opcode = "MAC";
      mode_req = None;
      node = add a (Ir.Tree.Binop (Ir.Op.Mul, b, b));
      children = [ reg "acc" 10; reg "xy" 11; reg "xy" 12 ];
      expected =
        Instr.make "MAC" ~defs:[ use "acc" 0 ]
          ~uses:[ use "acc" 10; use "xy" 11; use "xy" 12 ];
      misfits =
        [
          (add a b, [ reg "acc" 10; reg "xy" 11 ]);
          (add a b, [ reg "acc" 10; reg "xy" 11; Machine.Mem cell ]);
        ];
    };
  ]

let test_instr_emitter () =
  List.iter
    (fun c ->
      let ((r, _) as pair) =
        Target.Machine.instr ?mode_req:c.mode_req c.opcode c.rule
      in
      Alcotest.(check bool) (c.label ^ ": the rule itself") true (r == c.rule);
      let v, is = emitted pair c.node c.children in
      Alcotest.check instrs (c.label ^ ": as hand-written") [ c.expected ] is;
      Alcotest.(check bool)
        (c.label ^ ": defines the new register")
        true
        (v = Target.Machine.Vreg (vreg c.rule.lhs 0));
      (* The instruction attributes pass through. *)
      let _, is =
        emitted
          (Target.Machine.instr ~mode_req:("m", 3) ~words:2 ~cycles:5
             ~funit:"mac" c.opcode c.rule)
          c.node c.children
      in
      Alcotest.check instrs (c.label ^ ": attributes")
        [
          {
            c.expected with
            mode_req = Some ("m", 3);
            words = 2;
            cycles = 5;
            funit = "mac";
          };
        ]
        is;
      List.iter
        (fun (node, children) ->
          Alcotest.check_raises (c.label ^ ": misfit")
            (Invalid_argument
               ("Machine: node and children that do not fit rule "
              ^ c.rule.name))
            (fun () -> ignore (emitted pair node children)))
        c.misfits)
    emitter_cases

(* A shift by k on a machine that shifts by one: k chained copies, and the
   child's register for k = 0. *)
let test_repeat_emitter () =
  let rule =
    Burg.Rule.make ~name:"sfl" ~lhs:"acc" ~cost:1
      (Burg.Pattern.Binop (Ir.Op.Shl, Burg.Pattern.Nonterm "acc", Const_any))
  in
  let sfl = Target.Machine.repeat ~mode_req:("ovm", 0) "SFL" rule in
  let shift k = Ir.Tree.Binop (Ir.Op.Shl, Ir.Tree.var "a", Ir.Tree.const k) in
  let child = Target.Machine.Vreg (vreg "acc" 10) in
  let step d u =
    Target.Instr.make "SFL"
      ~defs:[ Target.Instr.Vreg (vreg "acc" d) ]
      ~uses:[ Target.Instr.Vreg (vreg "acc" u) ]
      ~mode_req:("ovm", 0)
  in
  let v, is = emitted sfl (shift 3) [ child ] in
  Alcotest.check instrs "three steps" [ step 0 10; step 1 0; step 2 1 ] is;
  Alcotest.(check bool) "the last step's register" true
    (v = Target.Machine.Vreg (vreg "acc" 2));
  let v, is = emitted sfl (shift 0) [ child ] in
  Alcotest.check instrs "no step" [] is;
  Alcotest.(check bool) "the child's register" true (v = child);
  Alcotest.check_raises "misfit"
    (Invalid_argument "Machine: node and children that do not fit rule sfl")
    (fun () -> ignore (emitted sfl (shift 3) [ Target.Machine.Mem cell ]))

let suites =
  [
    ( "target.instr",
      [
        Alcotest.test_case "printing" `Quick test_instr_printing;
        Alcotest.test_case "map_operands" `Quick test_instr_map_operands;
        Alcotest.test_case "regfile errors" `Quick test_regfile_errors;
      ] );
    ( "target.layout",
      [
        Alcotest.test_case "addresses and banks" `Quick test_layout_addresses;
        Alcotest.test_case "errors" `Quick test_layout_errors;
      ] );
    ( "target.mstate",
      [
        Alcotest.test_case "wrap on store" `Quick test_mstate_wrap_on_store;
        Alcotest.test_case "post-update addressing" `Quick test_mstate_postinc;
        Alcotest.test_case "address operands" `Quick test_mstate_adr_operand;
        Alcotest.test_case "vregs rejected" `Quick test_mstate_vreg_rejected;
        Alcotest.test_case "variable io" `Quick test_mstate_vars;
        Alcotest.test_case "writes stay inside a variable" `Quick
          test_mstate_writes_stay_inside;
      ] );
    ( "target.asm",
      [ Alcotest.test_case "size accounting" `Quick test_asm_accounting ] );
    ( "target.classify",
      [ Alcotest.test_case "cube corners" `Quick test_classify_corners ] );
    ( "target.modes",
      [
        Alcotest.test_case "a passed requirement is known" `Quick
          test_modes_requirement_known;
        Alcotest.test_case "a bare mode change forgets everything" `Quick
          test_modes_bare_change_forgets;
        Alcotest.test_case "a loop keeps entry knowledge one trip returns"
          `Quick test_modes_loop_entry;
        Alcotest.test_case "a loop of count 0 changes nothing" `Quick
          test_modes_dead_loop;
      ] );
    ( "target.machines",
      [
        Alcotest.test_case "well-formedness" `Quick test_machines_check;
        Alcotest.test_case "variable loads" `Quick test_machine_grammar_starts;
        Alcotest.test_case "operator coverage" `Quick
          test_machine_grammar_complete_for_ops;
        Alcotest.test_case "tic25 semantics" `Quick test_tic25_exec_semantics;
        Alcotest.test_case "tic25 DMOV" `Quick test_tic25_dmov;
        Alcotest.test_case "unknown opcode" `Quick test_tic25_unknown_opcode;
        Alcotest.test_case "asip parameter validation" `Quick
          test_asip_param_validation;
        Alcotest.test_case "asip feature grammars" `Quick
          test_asip_feature_grammars;
        Alcotest.test_case "pattern-driven emitter" `Quick test_instr_emitter;
        Alcotest.test_case "repeated one-register emitter" `Quick
          test_repeat_emitter;
      ] );
  ]

(* ---- Textual assembler round-trips -------------------------------------- *)

let test_asm_roundtrip_kernels () =
  (* Print the hand assembly of every kernel and parse it back: same size,
     and identical behaviour on the simulator. *)
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let original = Dspstone.Handasm.find k.name in
      let reparsed = Target.Tic25_asm.parse (Target.Tic25_asm.print original) in
      Alcotest.(check int) (k.name ^ " words") (Target.Asm.words original)
        (Target.Asm.words reparsed);
      let layout = Dspstone.Handasm.layout_for k in
      let run asm =
        let outcome =
          Sim.run Target.Tic25.machine ~layout ~inputs:k.inputs asm
        in
        ( Sim.outputs outcome (Dspstone.Kernels.prog k),
          outcome.Sim.cycles )
      in
      Alcotest.(check bool) (k.name ^ " behaviour") true
        (run original = run reparsed))
    (Dspstone.Kernels.all @ Dspstone.Kernels.extended)

let test_asm_roundtrip_compiled () =
  (* RECORD output (with AGU indirects, scratch cells, mode changes) also
     round-trips through text. *)
  let k = Dspstone.Kernels.find "fir" in
  let c = Record.Pipeline.compile Target.Tic25.machine (Dspstone.Kernels.prog k) in
  let reparsed = Target.Tic25_asm.parse (Target.Tic25_asm.print c.Record.Pipeline.asm) in
  Alcotest.(check int) "words" (Record.Pipeline.words c) (Target.Asm.words reparsed);
  let image =
    k.inputs @ List.map (fun (n, v) -> (n, [| v |])) c.Record.Pipeline.pool
  in
  let outcome =
    Sim.run Target.Tic25.machine ~layout:c.Record.Pipeline.layout ~inputs:image
      reparsed
  in
  let outs = Sim.outputs outcome (Dspstone.Kernels.prog k) in
  let expected = Dspstone.Kernels.reference_outputs k in
  List.iter
    (fun (n, v) -> Alcotest.(check (array int)) n v (List.assoc n outs))
    expected

let test_asm_parse_errors () =
  let bad s =
    match Target.Tic25_asm.parse s with
    | _ -> Alcotest.failf "accepted %S" s
    | exception Target.Tic25_asm.Parse_error _ -> ()
  in
  bad "FROB x";
  bad "LAC x[";
  bad "LAC #x";
  bad "; loop x3\nZAC";
  bad "; end loop"

let asm_text_suites =
  [
    ( "target.asmtext",
      [
        Alcotest.test_case "kernels round-trip" `Quick test_asm_roundtrip_kernels;
        Alcotest.test_case "compiled code round-trips" `Quick
          test_asm_roundtrip_compiled;
        Alcotest.test_case "parse errors" `Quick test_asm_parse_errors;
      ] );
  ]

let suites = suites @ asm_text_suites
