(* DSP56000-style target: a data ALU fed by four xy input registers and two
   accumulators, eight AGU address registers, X/Y memory banks, hardware DO
   loops, and one parallel data move alongside each ALU operation (modelled
   by the slot table: one alu slot, two move slots per word). *)

let nt n = Burg.Pattern.Nonterm n
let binop op a b = Burg.Pattern.Binop (op, a, b)
let unop op a = Burg.Pattern.Unop (op, a)
let rule = Burg.Rule.make

let shift_amount = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> Some k
  | _ -> None

let shift_ok t =
  match shift_amount t with Some k -> k >= 0 && k <= 15 | None -> false

let shift_cost t = match shift_amount t with Some k -> k | None -> 1

let rules =
  [
    rule ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any;
    rule ~name:"mem_const" ~lhs:"mem" ~cost:1 Burg.Pattern.Const_any;
    rule ~name:"ld_xy" ~lhs:"xy" ~cost:1 (nt "mem");
    rule ~name:"ld_acc" ~lhs:"acc" ~cost:1 (nt "mem");
    rule ~name:"acc_of_xy" ~lhs:"acc" ~cost:1 (nt "xy");
    rule ~name:"ld_imm" ~lhs:"acc" ~cost:1 Burg.Pattern.Const_any;
    rule ~name:"mac" ~lhs:"acc" ~cost:1
      (binop Ir.Op.Add (nt "acc") (binop Ir.Op.Mul (nt "xy") (nt "xy")));
    rule ~name:"mpy" ~lhs:"acc" ~cost:1 (binop Ir.Op.Mul (nt "xy") (nt "xy"));
    rule ~name:"add" ~lhs:"acc" ~cost:1 (binop Ir.Op.Add (nt "acc") (nt "xy"));
    rule ~name:"sub" ~lhs:"acc" ~cost:1 (binop Ir.Op.Sub (nt "acc") (nt "xy"));
    rule ~name:"and" ~lhs:"acc" ~cost:1 (binop Ir.Op.And (nt "acc") (nt "xy"));
    rule ~name:"or" ~lhs:"acc" ~cost:1 (binop Ir.Op.Or (nt "acc") (nt "xy"));
    rule ~name:"eor" ~lhs:"acc" ~cost:1 (binop Ir.Op.Xor (nt "acc") (nt "xy"));
    rule ~name:"neg" ~lhs:"acc" ~cost:1 (unop Ir.Op.Neg (nt "acc"));
    rule ~name:"not" ~lhs:"acc" ~cost:1 (unop Ir.Op.Not (nt "acc"));
    rule ~name:"asl" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
      (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any);
    rule ~name:"asr" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
      (binop Ir.Op.Shr (nt "acc") Burg.Pattern.Const_any);
    (* registers hold exact values, so one SAT after the exact computation
       implements the saturating expression *)
    rule ~name:"sat" ~lhs:"acc" ~cost:1 (unop Ir.Op.Sat (nt "acc"));
    rule ~name:"spill_xy" ~lhs:"mem" ~cost:1 (nt "xy");
    rule ~name:"spill_acc" ~lhs:"mem" ~cost:1 (nt "acc");
  ]

let grammar = Burg.Grammar.make ~name:"dsp56" ~start:"acc" rules

(* ---- emission helpers -------------------------------------------------- *)

let bad name = invalid_arg ("dsp56: bad children for " ^ name)

let load ctx cls m =
  let v = Machine.fresh_vreg ctx cls in
  Machine.emit ctx
    (Instr.make "MOVE"
       ~operands:[ Instr.Dir m ]
       ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
  v

let store_from ctx dst v =
  Machine.emit ctx
    (Instr.make "MOVE"
       ~operands:[ Instr.Dir dst ]
       ~defs:[ Instr.Dir dst ] ~uses:[ Instr.Vreg v ] ~funit:"move")

let load_imm ctx k =
  let v = Machine.fresh_vreg ctx "acc" in
  Machine.emit ctx
    (Instr.make "MOVEI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
       ~funit:"move");
  v

let alu ctx opcode uses =
  let d = Machine.fresh_vreg ctx "acc" in
  Machine.emit ctx
    (Instr.make opcode ~defs:[ Instr.Vreg d ]
       ~uses:(List.map (fun v -> Instr.Vreg v) uses));
  Machine.Vreg d

let binary opcode : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a; Machine.Vreg b ] -> alu ctx opcode [ a; b ]
  | _ -> bad opcode

let unary opcode : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a ] -> alu ctx opcode [ a ]
  | _ -> bad opcode

let shift opcode : Machine.emitter =
 fun ctx node children ->
  match children with
  | [ (Machine.Vreg a0 as v) ] ->
    let k = match shift_amount node with Some k -> k | None -> 1 in
    if k = 0 then v
    else begin
      let cur = ref (Machine.Vreg a0) in
      for _ = 1 to k do
        match !cur with
        | Machine.Vreg a -> cur := alu ctx opcode [ a ]
        | _ -> assert false
      done;
      !cur
    end
  | _ -> bad opcode

let emitters : (string * Machine.emitter) list =
  [
    ( "mem_ref",
      fun _ctx node _children ->
        match node with Ir.Tree.Ref r -> Machine.Mem r | _ -> bad "mem_ref" );
    ( "mem_const",
      fun ctx node _children ->
        match node with
        | Ir.Tree.Const k -> Machine.Mem (Machine.const_cell ctx k)
        | _ -> bad "mem_const" );
    ( "ld_xy",
      fun ctx _node children ->
        match children with
        | [ Machine.Mem m ] -> Machine.Vreg (load ctx "xy" m)
        | _ -> bad "ld_xy" );
    ( "ld_acc",
      fun ctx _node children ->
        match children with
        | [ Machine.Mem m ] -> Machine.Vreg (load ctx "acc" m)
        | _ -> bad "ld_acc" );
    ( "acc_of_xy",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg x ] -> alu ctx "TFR" [ x ]
        | _ -> bad "acc_of_xy" );
    ( "ld_imm",
      fun ctx node _children ->
        match node with
        | Ir.Tree.Const k -> Machine.Vreg (load_imm ctx k)
        | _ -> bad "ld_imm" );
    ( "mac",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg a; Machine.Vreg x; Machine.Vreg y ] ->
          alu ctx "MAC" [ a; x; y ]
        | _ -> bad "mac" );
    ("mpy", binary "MPY");
    ("add", binary "ADD");
    ("sub", binary "SUB");
    ("and", binary "AND");
    ("or", binary "OR");
    ("eor", binary "EOR");
    ("neg", unary "NEG");
    ("not", unary "NOT");
    ("asl", shift "ASL");
    ("asr", shift "ASR");
    ("sat", unary "SAT");
    ( "spill_xy",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg v ] ->
          let s = Machine.fresh_scratch ctx in
          store_from ctx s v;
          Machine.Mem s
        | _ -> bad "spill_xy" );
    ( "spill_acc",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg v ] ->
          let s = Machine.fresh_scratch ctx in
          store_from ctx s v;
          Machine.Mem s
        | _ -> bad "spill_acc" );
  ]

let store ctx dst (value : Machine.value) =
  match value with
  | Machine.Vreg v -> store_from ctx dst v
  | Machine.Mem src -> store_from ctx dst (load ctx "xy" src)
  | Machine.Imm k -> store_from ctx dst (load_imm ctx k)

(* ---- loop / AGU -------------------------------------------------------- *)

let loop_ =
  {
    Machine.counter_cls = "lc";
    loop_pre =
      (fun ctx ~count ->
        let c = Machine.fresh_vreg ctx "lc" in
        Machine.emit ctx
          (Instr.make "DO"
             ~operands:[ Instr.Vreg c; Instr.Imm count ]
             ~defs:[ Instr.Vreg c ] ~words:2 ~cycles:2 ~funit:"ctl");
        c);
    (* hardware loop: closing is free *)
    loop_close = (fun _ctx _c -> ());
  }

let agu =
  {
    Machine.ar_cls = "r";
    ar_limit = 8;
    load_ar =
      (fun ctx v r ->
        Machine.emit ctx
          (Instr.make "LEA"
             ~operands:[ Instr.Vreg v; Instr.Adr r ]
             ~defs:[ Instr.Vreg v ] ~funit:"ctl"));
    add_ar = None;
  }

let naive_agu =
  {
    Machine.address_into =
      (fun ctx v ~ivar_cell ~stream ->
        let step =
          match stream.Ir.Mref.index with
          | Ir.Mref.Induct { step; _ } -> step
          | _ -> 1
        in
        Machine.emit ctx
          (Instr.make "LEAI"
             ~operands:
               [
                 Instr.Vreg v;
                 Instr.Adr stream;
                 Instr.Dir ivar_cell;
                 Instr.Imm step;
               ]
             ~defs:[ Instr.Vreg v ]
             ~uses:[ Instr.Dir ivar_cell ]
             ~words:2 ~cycles:2 ~funit:"ctl"));
    zero_cell = (fun ctx cell -> store_from ctx cell (load_imm ctx 0));
    incr_cell =
      (fun ctx cell ->
        let a = load ctx "acc" cell in
        let a' = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx
          (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
             ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
        store_from ctx cell a');
  }

let spill_via cls =
  ignore cls;
  {
    Machine.spill_store =
      (fun v m ->
        Instr.make "MOVE"
          ~operands:[ Instr.Dir m ]
          ~defs:[ Instr.Dir m ] ~uses:[ Instr.Vreg v ] ~funit:"move");
    spill_load =
      (fun m v ->
        Instr.make "MOVE"
          ~operands:[ Instr.Dir m ]
          ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
  }

(* ---- executable semantics ---------------------------------------------- *)

(* Staged: operand shapes and the opcode dispatch resolve once per
   instruction; see the note on [Machine.t.semantics]. *)
let semantics layout (i : Instr.t) : Mstate.t -> unit =
  let op n = List.nth i.Instr.operands n in
  let rd n = Mstate.reader layout (op n) in
  let use n = Mstate.reader layout (List.nth i.Instr.uses n) in
  let def () =
    match i.Instr.defs with
    | d :: _ -> Mstate.writer layout d
    | [] -> invalid_arg ("dsp56: " ^ i.Instr.opcode ^ " without destination")
  in
  (* all-register shapes — the dominant ALU case — flatten to direct slot
     accesses with no operand-closure chain *)
  let unary f =
    match (i.Instr.defs, i.Instr.uses) with
    | Instr.Reg d :: _, Instr.Reg a :: _ ->
      let sd = Mstate.reg_slot d and sa = Mstate.reg_slot a in
      fun st -> Mstate.write_slot st sd (f (Mstate.read_slot st sa))
    | _ ->
      let w = def () and a = use 0 in
      fun st -> w st (f (a st))
  in
  let binary f =
    match (i.Instr.defs, i.Instr.uses) with
    | Instr.Reg d :: _, Instr.Reg a :: Instr.Reg b :: _ ->
      let sd = Mstate.reg_slot d
      and sa = Mstate.reg_slot a
      and sb = Mstate.reg_slot b in
      fun st ->
        Mstate.write_slot st sd
          (f (Mstate.read_slot st sa) (Mstate.read_slot st sb))
    | _ ->
      let w = def () and a = use 0 and b = use 1 in
      fun st -> w st (f (a st) (b st))
  in
  match i.Instr.opcode with
  | "MOVE" -> (
    match i.Instr.defs with
    | (Instr.Dir _ | Instr.Ind _) :: _ -> (
      let w0 = Mstate.writer layout (op 0) in
      match i.Instr.uses with
      | Instr.Reg a :: _ ->
        let sa = Mstate.reg_slot a in
        fun st -> w0 st (Mstate.read_slot st sa)
      | _ ->
        let a = use 0 in
        fun st -> w0 st (a st))
    | Instr.Reg d :: _ ->
      let sd = Mstate.reg_slot d and r0 = rd 0 in
      fun st -> Mstate.write_slot st sd (r0 st)
    | _ ->
      let w = def () and r0 = rd 0 in
      fun st -> w st (r0 st))
  | "MOVEI" -> (
    match (i.Instr.defs, op 0) with
    | Instr.Reg d :: _, Instr.Imm k ->
      let sd = Mstate.reg_slot d in
      fun st -> Mstate.write_slot st sd k
    | _ ->
      let w = def () and r0 = rd 0 in
      fun st -> w st (r0 st))
  | "TFR" -> unary (fun a -> a)
  | "ADD" -> binary ( + )
  | "SUB" -> binary ( - )
  | "AND" -> binary ( land )
  | "OR" -> binary ( lor )
  | "EOR" -> binary ( lxor )
  | "MPY" -> binary ( * )
  | "MAC" -> (
    match (i.Instr.defs, i.Instr.uses) with
    | Instr.Reg d :: _, [ Instr.Reg a; Instr.Reg b; Instr.Reg c ] ->
      let sd = Mstate.reg_slot d
      and sa = Mstate.reg_slot a
      and sb = Mstate.reg_slot b
      and sc = Mstate.reg_slot c in
      fun st ->
        Mstate.write_slot st sd
          (Mstate.read_slot st sa
          + (Mstate.read_slot st sb * Mstate.read_slot st sc))
    | _ ->
      let w = def () and a = use 0 and b = use 1 and c = use 2 in
      fun st -> w st (a st + (b st * c st)))
  | "NEG" -> unary (fun a -> -a)
  | "NOT" -> unary lnot
  | "ASL" -> unary (fun a -> a * 2)
  | "ASR" -> unary (fun a -> a asr 1)
  | "SAT" -> unary (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
  | "ADDI" -> (
    match (i.Instr.defs, i.Instr.uses, op 0) with
    | Instr.Reg d :: _, Instr.Reg a :: _, Instr.Imm k ->
      let sd = Mstate.reg_slot d and sa = Mstate.reg_slot a in
      fun st -> Mstate.write_slot st sd (Mstate.read_slot st sa + k)
    | _ ->
      let w = def () and a = use 0 and k = rd 0 in
      fun st -> w st (a st + k st))
  | "DO" | "LEA" ->
    let w0 = Mstate.writer layout (op 0) and r1 = rd 1 in
    fun st -> w0 st (r1 st)
  | "LEAI" ->
    let w0 = Mstate.writer layout (op 0) in
    let r1 = rd 1 and r2 = rd 2 and r3 = rd 3 in
    fun st -> w0 st (r1 st + (r3 st * r2 st))
  | opc -> invalid_arg ("dsp56: cannot execute " ^ opc)

let machine =
  {
    Machine.name = "dsp56";
    description = "DSP56000-style dual-bank DSP with parallel moves";
    word_bits = 16;
    grammar;
    emitters;
    store;
    regfile =
      Regfile.make
        [
          { Regfile.cls_name = "xy"; count = 4; role = "ALU input registers" };
          { Regfile.cls_name = "acc"; count = 2; role = "accumulators" };
          { Regfile.cls_name = "r"; count = 8; role = "address registers" };
          { Regfile.cls_name = "lc"; count = 1; role = "loop counter" };
        ];
    modes = [];
    mode_change =
      (fun m v -> invalid_arg (Printf.sprintf "dsp56: no mode %s=%d" m v));
    slots = Some [ ("alu", 1); ("move", 2) ];
    banks = [ "x"; "y" ];
    default_bank = "x";
    loop_;
    agu = Some agu;
    naive_agu = Some naive_agu;
    spills = [ ("xy", spill_via "xy"); ("acc", spill_via "acc") ];
    semantics;
    classification =
      {
        Classify.availability = Classify.Package;
        domain = Classify.Dsp;
        application = Classify.Fixed_architecture;
      };
  }
