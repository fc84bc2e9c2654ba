(* Parameterizable ASIP: an accumulator machine whose datapath features are
   design-space knobs — accumulator count, hardware multiplier, MAC unit,
   saturation hardware, immediate field width, and number of address
   registers.  The grammar is assembled from the enabled features, so the
   same kernel compiles to different code (and different costs) across the
   design space; missing hardware falls back to slower software sequences
   with static cycle counts. *)

type params = {
  accumulators : int;
  has_multiplier : bool;
  has_mac : bool;
  has_saturation : bool;
  imm_bits : int;
  address_regs : int;
}

let default =
  {
    accumulators = 1;
    has_multiplier = true;
    has_mac = true;
    has_saturation = true;
    imm_bits = 8;
    address_regs = 4;
  }

(* Rejections name the offending value, not just the constraint: a
   design-space sweep that rules a sample out must be diagnosable from the
   log line alone. *)
let validate p =
  if p.accumulators < 1 || p.accumulators > 2 then
    invalid_arg
      (Printf.sprintf "Asip: accumulators must be 1 or 2 (got %d)"
         p.accumulators);
  if p.imm_bits < 4 || p.imm_bits > 16 then
    invalid_arg
      (Printf.sprintf "Asip: imm_bits must be within 4..16 (got %d)"
         p.imm_bits);
  if p.address_regs < 2 then
    invalid_arg
      (Printf.sprintf "Asip: need at least 2 address regs (got %d)"
         p.address_regs)

let nt n = Burg.Pattern.Nonterm n
let binop op a b = Burg.Pattern.Binop (op, a, b)
let unop op a = Burg.Pattern.Unop (op, a)
let rule = Burg.Rule.make

let shift_amount = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> Some k
  | _ -> None

let shift_ok t =
  match shift_amount t with Some k -> k >= 0 && k <= 15 | None -> false

let machine ?(name = "asip") p =
  validate p;
  let fits_imm k = k >= 0 && k < 1 lsl p.imm_bits in
  let imm_guard = function
    | Ir.Tree.Const k -> fits_imm k
    | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> fits_imm k
    | _ -> false
  in
  let bad rname = invalid_arg (name ^ ": bad children for " ^ rname) in
  let moves = Machine.moves ~load:"LD" ~store:"ST" in
  let load ctx m = Machine.emit_load ctx moves "acc" m in
  let load_imm ctx k =
    let v = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx
      (Instr.make "LDI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
         ~funit:"move");
    v
  in
  let mac_emit ctx a m1 m2 =
    let d = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx
      (Instr.make "MAC"
         ~operands:[ Instr.Dir m1; Instr.Dir m2 ]
         ~defs:[ Instr.Vreg d ]
         ~uses:[ Instr.Vreg a; Instr.Dir m1; Instr.Dir m2 ]);
    Machine.Vreg d
  in
  let rules =
    Machine.mem_rules
    @ [
      ( rule ~name:"ld" ~lhs:"acc" ~cost:1 (nt "mem"),
        Machine.load_emitter moves "acc" );
      ( rule ~name:"ldi" ~lhs:"acc" ~cost:1 ~guard:imm_guard
          Burg.Pattern.Const_any,
        Machine.imm_emitter load_imm );
      Machine.instr "ADD"
        (rule ~name:"add" ~lhs:"acc" ~cost:1
           (binop Ir.Op.Add (nt "acc") (nt "mem")));
      Machine.instr "ADDI"
        (rule ~name:"addi" ~lhs:"acc" ~cost:1 ~guard:imm_guard
           (binop Ir.Op.Add (nt "acc") Burg.Pattern.Const_any));
      Machine.instr "SUB"
        (rule ~name:"sub" ~lhs:"acc" ~cost:1
           (binop Ir.Op.Sub (nt "acc") (nt "mem")));
      Machine.instr "AND"
        (rule ~name:"and" ~lhs:"acc" ~cost:1
           (binop Ir.Op.And (nt "acc") (nt "mem")));
      Machine.instr "OR"
        (rule ~name:"or" ~lhs:"acc" ~cost:1
           (binop Ir.Op.Or (nt "acc") (nt "mem")));
      Machine.instr "XOR"
        (rule ~name:"xor" ~lhs:"acc" ~cost:1
           (binop Ir.Op.Xor (nt "acc") (nt "mem")));
      Machine.instr "SHL"
        (rule ~name:"shl" ~lhs:"acc" ~cost:1 ~guard:shift_ok
           (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any));
      Machine.instr "SHR"
        (rule ~name:"shr" ~lhs:"acc" ~cost:1 ~guard:shift_ok
           (binop Ir.Op.Shr (nt "acc") Burg.Pattern.Const_any));
      Machine.instr "NEG"
        (rule ~name:"neg" ~lhs:"acc" ~cost:1 (unop Ir.Op.Neg (nt "acc")));
      Machine.instr "NOT"
        (rule ~name:"not" ~lhs:"acc" ~cost:1 (unop Ir.Op.Not (nt "acc")));
      ( rule ~name:"spill_st" ~lhs:"mem" ~cost:1 (nt "acc"),
        Machine.spill_emitter moves.Machine.spill_store );
    ]
    @ (if p.has_multiplier then
         [
           Machine.instr "MUL"
             (rule ~name:"mul" ~lhs:"acc" ~cost:1
                (binop Ir.Op.Mul (nt "acc") (nt "mem")));
         ]
       else if p.has_mac then
         (* no multiplier, but the MAC unit can multiply into a zeroed
            accumulator *)
         [
           ( rule ~name:"mul_via_mac" ~lhs:"acc" ~cost:2
               (binop Ir.Op.Mul (nt "mem") (nt "mem")),
             fun ctx _node children ->
               match children with
               | [ Machine.Mem m1; Machine.Mem m2 ] ->
                 let z = load_imm ctx 0 in
                 mac_emit ctx z m1 m2
               | _ -> bad "mul_via_mac" );
         ]
       else
         [
           Machine.instr ~words:2 ~cycles:17 "MULS"
             (rule ~name:"mul_soft" ~lhs:"acc" ~cost:2
                (binop Ir.Op.Mul (nt "acc") (nt "mem")));
         ])
    @ (if p.has_mac then
         [
           ( rule ~name:"mac" ~lhs:"acc" ~cost:1
               (binop Ir.Op.Add (nt "acc")
                  (binop Ir.Op.Mul (nt "mem") (nt "mem"))),
             fun ctx _node children ->
               match children with
               | [ Machine.Vreg a; Machine.Mem m1; Machine.Mem m2 ] ->
                 mac_emit ctx a m1 m2
               | _ -> bad "mac" );
         ]
       else [])
    @
    if p.has_saturation then
      [
        Machine.instr "SAT"
          (rule ~name:"sat" ~lhs:"acc" ~cost:1 (unop Ir.Op.Sat (nt "acc")));
      ]
    else
      [
        Machine.instr ~words:3 ~cycles:3 "SATS"
          (rule ~name:"sat_soft" ~lhs:"acc" ~cost:3
             (unop Ir.Op.Sat (nt "acc")));
      ]
  in
  let grammar = Burg.Grammar.make ~name ~start:"acc" (List.map fst rules) in
  let store =
    Machine.store_with moves "acc" ~imm:(fun ctx k ->
        if fits_imm k then load_imm ctx k
        else load ctx (Machine.const_cell ctx k))
  in
  let loop_ =
    {
      Machine.counter_cls = "ar";
      loop_pre =
        (fun ctx ~count ->
          let c = Machine.fresh_vreg ctx "ar" in
          Machine.emit ctx
            (Instr.make "LDC"
               ~operands:[ Instr.Vreg c; Instr.Imm count ]
               ~defs:[ Instr.Vreg c ] ~funit:"ctl");
          c);
      loop_close =
        (fun ctx c ->
          Machine.emit ctx
            (Instr.make "DJNZ"
               ~operands:[ Instr.Vreg c ]
               ~defs:[ Instr.Vreg c ] ~uses:[ Instr.Vreg c ] ~words:2
               ~cycles:2 ~funit:"ctl"));
    }
  in
  let agu =
    {
      Machine.ar_cls = "ar";
      ar_limit = p.address_regs;
      load_ar = Machine.load_ar "LDAR";
    }
  in
  let naive_agu =
    {
      Machine.address_into = Machine.address_into "LDARI";
      incr_cell =
        (fun ctx cell ->
          let a = load ctx cell in
          let a' = Machine.fresh_vreg ctx "acc" in
          Machine.emit ctx
            (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
               ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
          Machine.emit_store ctx moves cell a');
    }
  in
  (* Staged: operand shapes and the opcode dispatch resolve once per
     instruction; see the note on [Machine.t.semantics]. *)
  let semantics layout (i : Instr.t) : Mstate.t -> unit =
    match i.Instr.opcode with
    | "LD" | "LDI" ->
      let w = Machine.def name layout i and r0 = Machine.rd layout i 0 in
      fun st -> w st (r0 st)
    | "ST" ->
      let w0 = Machine.wr layout i 0 and a = Machine.use layout i 0 in
      fun st -> w0 st (a st)
    (* binary over the first use and the first operand, the ASIP's
       accumulator-machine shape *)
    | "ADD" | "ADDI" -> Machine.use_op name layout i ( + )
    | "SUB" -> Machine.use_op name layout i ( - )
    | "AND" -> Machine.use_op name layout i ( land )
    | "OR" -> Machine.use_op name layout i ( lor )
    | "XOR" -> Machine.use_op name layout i ( lxor )
    | "SHL" -> Machine.use_op name layout i (Ir.Op.eval_binop Ir.Op.Shl)
    | "SHR" -> Machine.use_op name layout i (Ir.Op.eval_binop Ir.Op.Shr)
    | "NEG" -> Machine.unary name layout i (fun a -> -a)
    | "NOT" -> Machine.unary name layout i lnot
    | "MUL" | "MULS" -> Machine.use_op name layout i ( * )
    | "MAC" ->
      let w = Machine.def name layout i
      and a = Machine.use layout i 0
      and k0 = Machine.rd layout i 0
      and k1 = Machine.rd layout i 1 in
      fun st -> w st (a st + (k0 st * k1 st))
    | "SAT" | "SATS" ->
      Machine.unary name layout i (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
    | "LDC" | "LDAR" ->
      let w0 = Machine.wr layout i 0 and r1 = Machine.rd layout i 1 in
      fun st -> w0 st (r1 st)
    | "DJNZ" -> Mstate.operand_adder layout i (List.nth i.Instr.operands 0) (-1)
    | "LDARI" -> Machine.address_into_semantics layout i
    | opc -> invalid_arg (Printf.sprintf "%s: cannot execute %s" name opc)
  in
  {
    Machine.name;
    description =
      Printf.sprintf
        "parameterizable ASIP (%d acc%s%s%s, %d-bit imm, %d addr regs)"
        p.accumulators
        (if p.has_multiplier then ", mul" else "")
        (if p.has_mac then ", mac" else "")
        (if p.has_saturation then ", sat" else "")
        p.imm_bits p.address_regs;
    word_bits = 16;
    grammar;
    rules;
    store;
    regfile =
      Regfile.make
        [
          {
            Regfile.cls_name = "acc";
            count = p.accumulators;
            role = "accumulators";
          };
          {
            Regfile.cls_name = "ar";
            count = p.address_regs;
            role = "counter / address registers";
          };
        ];
    modes = [];
    mode_change =
      (fun m v -> invalid_arg (Printf.sprintf "%s: no mode %s=%d" name m v));
    slots = None;
    banks = [ "data" ];
    loop_;
    agu = Some agu;
    naive_agu = Some naive_agu;
    spills = [ ("acc", moves) ];
    semantics;
    classification =
      {
        Classify.availability = Classify.Core;
        domain = Classify.Dsp;
        application = Classify.Asip;
      };
  }
