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

(* Both data classes move with MOVE. *)
let moves = Machine.moves ~load:"MOVE" ~store:"MOVE"

let load_imm ctx k =
  let v = Machine.fresh_vreg ctx "acc" in
  Machine.emit ctx
    (Instr.make "MOVEI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
       ~funit:"move");
  v

(* Every rule with its emitter; the data ALU's operands are registers. *)
let rules =
  Machine.mem_rules
  @ [
    ( rule ~name:"ld_xy" ~lhs:"xy" ~cost:1 (nt "mem"),
      Machine.load_emitter moves "xy" );
    ( rule ~name:"ld_acc" ~lhs:"acc" ~cost:1 (nt "mem"),
      Machine.load_emitter moves "acc" );
    Machine.instr "TFR" (rule ~name:"acc_of_xy" ~lhs:"acc" ~cost:1 (nt "xy"));
    ( rule ~name:"ld_imm" ~lhs:"acc" ~cost:1 Burg.Pattern.Const_any,
      Machine.imm_emitter load_imm );
    Machine.instr "MAC"
      (rule ~name:"mac" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Add (nt "acc") (binop Ir.Op.Mul (nt "xy") (nt "xy"))));
    Machine.instr "MPY"
      (rule ~name:"mpy" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Mul (nt "xy") (nt "xy")));
    Machine.instr "ADD"
      (rule ~name:"add" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Add (nt "acc") (nt "xy")));
    Machine.instr "SUB"
      (rule ~name:"sub" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Sub (nt "acc") (nt "xy")));
    Machine.instr "AND"
      (rule ~name:"and" ~lhs:"acc" ~cost:1
         (binop Ir.Op.And (nt "acc") (nt "xy")));
    Machine.instr "OR"
      (rule ~name:"or" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Or (nt "acc") (nt "xy")));
    Machine.instr "EOR"
      (rule ~name:"eor" ~lhs:"acc" ~cost:1
         (binop Ir.Op.Xor (nt "acc") (nt "xy")));
    Machine.instr "NEG"
      (rule ~name:"neg" ~lhs:"acc" ~cost:1 (unop Ir.Op.Neg (nt "acc")));
    Machine.instr "NOT"
      (rule ~name:"not" ~lhs:"acc" ~cost:1 (unop Ir.Op.Not (nt "acc")));
    Machine.repeat "ASL"
      (rule ~name:"asl" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
         (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any));
    Machine.repeat "ASR"
      (rule ~name:"asr" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
         (binop Ir.Op.Shr (nt "acc") Burg.Pattern.Const_any));
    (* registers hold exact values, so one SAT after the exact computation
       implements the saturating expression *)
    Machine.instr "SAT"
      (rule ~name:"sat" ~lhs:"acc" ~cost:1 (unop Ir.Op.Sat (nt "acc")));
    ( rule ~name:"spill_xy" ~lhs:"mem" ~cost:1 (nt "xy"),
      Machine.spill_emitter moves.Machine.spill_store );
    ( rule ~name:"spill_acc" ~lhs:"mem" ~cost:1 (nt "acc"),
      Machine.spill_emitter moves.Machine.spill_store );
  ]

let grammar =
  Burg.Grammar.make ~name:"dsp56" ~start:"acc" (List.map fst rules)

let store = Machine.store_with moves "xy" ~imm:load_imm

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
  { Machine.ar_cls = "r"; ar_limit = 8; load_ar = Machine.load_ar "LEA" }

let naive_agu =
  {
    Machine.address_into = Machine.address_into "LEAI";
    incr_cell =
      (fun ctx cell ->
        let a = Machine.emit_load ctx moves "acc" cell in
        let a' = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx
          (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
             ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
        Machine.emit_store ctx moves cell a');
  }

(* ---- executable semantics ---------------------------------------------- *)

(* Staged: operand shapes and the opcode dispatch resolve once per
   instruction; see the note on [Machine.t.semantics]. *)
let semantics layout (i : Instr.t) : Mstate.t -> unit =
  match i.Instr.opcode with
  | "MOVE" -> (
    match i.Instr.defs with
    | (Instr.Dir _ | Instr.Ind _) :: _ -> (
      let w0 = Machine.wr layout i 0 in
      match i.Instr.uses with
      | Instr.Reg a :: _ ->
        let sa = Mstate.reg_slot a in
        fun st -> w0 st (Mstate.read_slot st sa)
      | _ ->
        let a = Machine.use layout i 0 in
        fun st -> w0 st (a st))
    | Instr.Reg d :: _ ->
      let sd = Mstate.reg_slot d and r0 = Machine.rd layout i 0 in
      fun st -> Mstate.write_slot st sd (r0 st)
    | _ ->
      let w = Machine.def "dsp56" layout i and r0 = Machine.rd layout i 0 in
      fun st -> w st (r0 st))
  | "MOVEI" -> (
    match (i.Instr.defs, List.nth i.Instr.operands 0) with
    | Instr.Reg d :: _, Instr.Imm k ->
      let sd = Mstate.reg_slot d in
      fun st -> Mstate.write_slot st sd k
    | _ ->
      let w = Machine.def "dsp56" layout i and r0 = Machine.rd layout i 0 in
      fun st -> w st (r0 st))
  | "TFR" -> Machine.unary "dsp56" layout i (fun a -> a)
  | "ADD" -> Machine.binary "dsp56" layout i ( + )
  | "SUB" -> Machine.binary "dsp56" layout i ( - )
  | "AND" -> Machine.binary "dsp56" layout i ( land )
  | "OR" -> Machine.binary "dsp56" layout i ( lor )
  | "EOR" -> Machine.binary "dsp56" layout i ( lxor )
  | "MPY" -> Machine.binary "dsp56" layout i ( * )
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
      let w = Machine.def "dsp56" layout i
      and a = Machine.use layout i 0
      and b = Machine.use layout i 1
      and c = Machine.use layout i 2 in
      fun st -> w st (a st + (b st * c st)))
  | "NEG" -> Machine.unary "dsp56" layout i (fun a -> -a)
  | "NOT" -> Machine.unary "dsp56" layout i lnot
  | "ASL" -> Machine.unary "dsp56" layout i (fun a -> a * 2)
  | "ASR" -> Machine.unary "dsp56" layout i (fun a -> a asr 1)
  | "SAT" ->
    Machine.unary "dsp56" layout i (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
  | "ADDI" -> Machine.use_op "dsp56" layout i ( + )
  | "DO" | "LEA" ->
    let w0 = Machine.wr layout i 0 and r1 = Machine.rd layout i 1 in
    fun st -> w0 st (r1 st)
  | "LEAI" -> Machine.address_into_semantics layout i
  | opc -> invalid_arg ("dsp56: cannot execute " ^ opc)

let machine =
  {
    Machine.name = "dsp56";
    description = "DSP56000-style dual-bank DSP with parallel moves";
    word_bits = 16;
    grammar;
    rules;
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
    loop_;
    agu = Some agu;
    naive_agu = Some naive_agu;
    spills = [ ("xy", moves); ("acc", moves) ];
    semantics;
    classification =
      {
        Classify.availability = Classify.Package;
        domain = Classify.Dsp;
        application = Classify.Fixed_architecture;
      };
  }
