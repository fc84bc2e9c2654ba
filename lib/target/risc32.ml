(* Conventional 32-register load/store RISC — the Table-1 baseline of an
   off-the-shelf general-purpose processor.  Three-address ALU operations
   over one homogeneous class, software loop control, no AGU, no hardware
   saturation.  Word width stays 16 so programs behave identically across
   the bundled machines. *)

let nt n = Burg.Pattern.Nonterm n
let binop op a b = Burg.Pattern.Binop (op, a, b)
let unop op a = Burg.Pattern.Unop (op, a)
let rule = Burg.Rule.make

let shift_amount = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> Some k
  | _ -> None

let shift_ok t =
  match shift_amount t with Some k -> k >= 0 && k <= 15 | None -> false

let imm12 = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> k >= -2047 && k <= 2047
  | _ -> false

let moves = Machine.moves ~load:"LW" ~store:"SW"

let load_imm ctx k =
  let v = Machine.fresh_vreg ctx "g" in
  Machine.emit ctx
    (Instr.make "LI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
       ~funit:"move");
  v

let rules =
  Machine.mem_rules
  @ [
    ( rule ~name:"lw" ~lhs:"g" ~cost:1 (nt "mem"),
      Machine.load_emitter moves "g" );
    ( rule ~name:"li" ~lhs:"g" ~cost:1 Burg.Pattern.Const_any,
      Machine.imm_emitter load_imm );
    Machine.instr "ADDI"
      (rule ~name:"addi" ~lhs:"g" ~cost:1 ~guard:imm12
         (binop Ir.Op.Add (nt "g") Burg.Pattern.Const_any));
    Machine.instr "ADD"
      (rule ~name:"add" ~lhs:"g" ~cost:1 (binop Ir.Op.Add (nt "g") (nt "g")));
    Machine.instr "SUB"
      (rule ~name:"sub" ~lhs:"g" ~cost:1 (binop Ir.Op.Sub (nt "g") (nt "g")));
    Machine.instr "MUL"
      (rule ~name:"mul" ~lhs:"g" ~cost:1 (binop Ir.Op.Mul (nt "g") (nt "g")));
    Machine.instr "AND"
      (rule ~name:"and" ~lhs:"g" ~cost:1 (binop Ir.Op.And (nt "g") (nt "g")));
    Machine.instr "OR"
      (rule ~name:"or" ~lhs:"g" ~cost:1 (binop Ir.Op.Or (nt "g") (nt "g")));
    Machine.instr "XOR"
      (rule ~name:"xor" ~lhs:"g" ~cost:1 (binop Ir.Op.Xor (nt "g") (nt "g")));
    Machine.instr "SLLI"
      (rule ~name:"slli" ~lhs:"g" ~cost:1 ~guard:shift_ok
         (binop Ir.Op.Shl (nt "g") Burg.Pattern.Const_any));
    Machine.instr "SRAI"
      (rule ~name:"srai" ~lhs:"g" ~cost:1 ~guard:shift_ok
         (binop Ir.Op.Shr (nt "g") Burg.Pattern.Const_any));
    Machine.instr "NEG"
      (rule ~name:"neg" ~lhs:"g" ~cost:1 (unop Ir.Op.Neg (nt "g")));
    Machine.instr "NOT"
      (rule ~name:"not" ~lhs:"g" ~cost:1 (unop Ir.Op.Not (nt "g")));
    (* saturation emulated by a compare-and-clamp sequence *)
    Machine.instr ~words:3 ~cycles:3 "SSAT"
      (rule ~name:"ssat" ~lhs:"g" ~cost:3 (unop Ir.Op.Sat (nt "g")));
    ( rule ~name:"spill_sw" ~lhs:"mem" ~cost:1 (nt "g"),
      Machine.spill_emitter moves.Machine.spill_store );
  ]

let grammar =
  Burg.Grammar.make ~name:"risc32" ~start:"g" (List.map fst rules)

let store = Machine.store_with moves "g" ~imm:load_imm

let loop_ =
  {
    Machine.counter_cls = "g";
    loop_pre =
      (fun ctx ~count ->
        let c = Machine.fresh_vreg ctx "g" in
        Machine.emit ctx
          (Instr.make "LI"
             ~operands:[ Instr.Vreg c; Instr.Imm count ]
             ~defs:[ Instr.Vreg c ] ~funit:"ctl");
        c);
    loop_close =
      (fun ctx c ->
        (* decrement, then the closing conditional branch; the branch is
           control (never removed) and keeps the counter live *)
        Machine.emit ctx
          (Instr.make "ADDI"
             ~operands:[ Instr.Imm (-1) ]
             ~defs:[ Instr.Vreg c ] ~uses:[ Instr.Vreg c ]);
        Machine.emit ctx
          (Instr.make "BNEZ"
             ~operands:[ Instr.Vreg c ]
             ~uses:[ Instr.Vreg c ] ~funit:"ctl"));
  }

let agu =
  { Machine.ar_cls = "g"; ar_limit = 8; load_ar = Machine.load_ar "LA" }

let naive_agu =
  {
    Machine.address_into = Machine.address_into "LAI";
    incr_cell =
      (fun ctx cell ->
        let a = Machine.emit_load ctx moves "g" cell in
        let a' = Machine.fresh_vreg ctx "g" in
        Machine.emit ctx
          (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
             ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
        Machine.emit_store ctx moves cell a');
  }

(* Staged: operand shapes and the opcode dispatch resolve once per
   instruction; see the note on [Machine.t.semantics]. *)
let semantics layout (i : Instr.t) : Mstate.t -> unit =
  match i.Instr.opcode with
  | "LW" -> (
    let r0 = Machine.rd layout i 0 in
    match i.Instr.defs with
    | Instr.Reg d :: _ ->
      let sd = Mstate.reg_slot d in
      fun st -> Mstate.write_slot st sd (r0 st)
    | _ ->
      let w = Machine.def "risc32" layout i in
      fun st -> w st (r0 st))
  | "SW" -> (
    let w0 = Machine.wr layout i 0 in
    match i.Instr.uses with
    | Instr.Reg a :: _ ->
      let sa = Mstate.reg_slot a in
      fun st -> w0 st (Mstate.read_slot st sa)
    | _ ->
      let a = Machine.use layout i 0 in
      fun st -> w0 st (a st))
  | "LI" -> (
    match i.Instr.operands with
    | [ Instr.Imm k ] ->
      let w = Machine.def "risc32" layout i in
      fun st -> w st k
    | [ c; Instr.Imm k ] ->
      let wc = Mstate.operand_writer layout i c in
      fun st -> wc st k
    | _ -> invalid_arg "risc32: LI operands")
  | "ADDI" -> Machine.use_op "risc32" layout i ( + )
  | "ADD" -> Machine.binary "risc32" layout i ( + )
  | "SUB" -> Machine.binary "risc32" layout i ( - )
  | "MUL" -> Machine.binary "risc32" layout i ( * )
  | "AND" -> Machine.binary "risc32" layout i ( land )
  | "OR" -> Machine.binary "risc32" layout i ( lor )
  | "XOR" -> Machine.binary "risc32" layout i ( lxor )
  | "SLLI" -> Machine.use_op "risc32" layout i (Ir.Op.eval_binop Ir.Op.Shl)
  | "SRAI" -> Machine.use_op "risc32" layout i (Ir.Op.eval_binop Ir.Op.Shr)
  | "NEG" -> Machine.unary "risc32" layout i (fun a -> -a)
  | "NOT" -> Machine.unary "risc32" layout i lnot
  | "SSAT" ->
    Machine.unary "risc32" layout i (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
  | "BNEZ" -> fun _ -> ()
  | "LA" ->
    let w0 = Machine.wr layout i 0 and r1 = Machine.rd layout i 1 in
    fun st -> w0 st (r1 st)
  | "LAI" -> Machine.address_into_semantics layout i
  | opc -> invalid_arg ("risc32: cannot execute " ^ opc)

let machine =
  {
    Machine.name = "risc32";
    description = "conventional 32-register load/store RISC baseline";
    word_bits = 16;
    grammar;
    rules;
    store;
    regfile =
      Regfile.make
        [ { Regfile.cls_name = "g"; count = 32; role = "general registers" } ];
    modes = [];
    mode_change =
      (fun m v -> invalid_arg (Printf.sprintf "risc32: no mode %s=%d" m v));
    slots = None;
    banks = [ "data" ];
    loop_;
    agu = Some agu;
    naive_agu = Some naive_agu;
    spills = [ ("g", moves) ];
    semantics;
    classification =
      {
        Classify.availability = Classify.Package;
        domain = Classify.General_purpose;
        application = Classify.Fixed_architecture;
      };
  }
