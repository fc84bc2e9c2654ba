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
  let rules =
    [
      rule ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any;
      rule ~name:"mem_const" ~lhs:"mem" ~cost:1 Burg.Pattern.Const_any;
      rule ~name:"ld" ~lhs:"acc" ~cost:1 (nt "mem");
      rule ~name:"ldi" ~lhs:"acc" ~cost:1 ~guard:imm_guard
        Burg.Pattern.Const_any;
      rule ~name:"add" ~lhs:"acc" ~cost:1
        (binop Ir.Op.Add (nt "acc") (nt "mem"));
      rule ~name:"addi" ~lhs:"acc" ~cost:1 ~guard:imm_guard
        (binop Ir.Op.Add (nt "acc") Burg.Pattern.Const_any);
      rule ~name:"sub" ~lhs:"acc" ~cost:1
        (binop Ir.Op.Sub (nt "acc") (nt "mem"));
      rule ~name:"and" ~lhs:"acc" ~cost:1
        (binop Ir.Op.And (nt "acc") (nt "mem"));
      rule ~name:"or" ~lhs:"acc" ~cost:1 (binop Ir.Op.Or (nt "acc") (nt "mem"));
      rule ~name:"xor" ~lhs:"acc" ~cost:1
        (binop Ir.Op.Xor (nt "acc") (nt "mem"));
      rule ~name:"shl" ~lhs:"acc" ~cost:1 ~guard:shift_ok
        (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any);
      rule ~name:"shr" ~lhs:"acc" ~cost:1 ~guard:shift_ok
        (binop Ir.Op.Shr (nt "acc") Burg.Pattern.Const_any);
      rule ~name:"neg" ~lhs:"acc" ~cost:1 (unop Ir.Op.Neg (nt "acc"));
      rule ~name:"not" ~lhs:"acc" ~cost:1 (unop Ir.Op.Not (nt "acc"));
      rule ~name:"spill_st" ~lhs:"mem" ~cost:1 (nt "acc");
    ]
    @ (if p.has_multiplier then
         [
           rule ~name:"mul" ~lhs:"acc" ~cost:1
             (binop Ir.Op.Mul (nt "acc") (nt "mem"));
         ]
       else if p.has_mac then
         (* no multiplier, but the MAC unit can multiply into a zeroed
            accumulator *)
         [
           rule ~name:"mul_via_mac" ~lhs:"acc" ~cost:2
             (binop Ir.Op.Mul (nt "mem") (nt "mem"));
         ]
       else
         [
           rule ~name:"mul_soft" ~lhs:"acc" ~cost:2
             (binop Ir.Op.Mul (nt "acc") (nt "mem"));
         ])
    @ (if p.has_mac then
         [
           rule ~name:"mac" ~lhs:"acc" ~cost:1
             (binop Ir.Op.Add (nt "acc")
                (binop Ir.Op.Mul (nt "mem") (nt "mem")));
         ]
       else [])
    @
    if p.has_saturation then
      [ rule ~name:"sat" ~lhs:"acc" ~cost:1 (unop Ir.Op.Sat (nt "acc")) ]
    else
      [ rule ~name:"sat_soft" ~lhs:"acc" ~cost:3 (unop Ir.Op.Sat (nt "acc")) ]
  in
  let grammar = Burg.Grammar.make ~name ~start:"acc" rules in
  let bad rname = invalid_arg (name ^ ": bad children for " ^ rname) in
  let load ctx m =
    let v = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx
      (Instr.make "LD"
         ~operands:[ Instr.Dir m ]
         ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
    v
  in
  let store_from ctx dst v =
    Machine.emit ctx
      (Instr.make "ST"
         ~operands:[ Instr.Dir dst ]
         ~defs:[ Instr.Dir dst ] ~uses:[ Instr.Vreg v ] ~funit:"move")
  in
  let load_imm ctx k =
    let v = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx
      (Instr.make "LDI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
         ~funit:"move");
    v
  in
  let acc_mem ?(words = 1) ?cycles opcode : Machine.emitter =
   fun ctx _node children ->
    match children with
    | [ Machine.Vreg a; Machine.Mem m ] ->
      let d = Machine.fresh_vreg ctx "acc" in
      Machine.emit ctx
        (Instr.make opcode
           ~operands:[ Instr.Dir m ]
           ~defs:[ Instr.Vreg d ]
           ~uses:[ Instr.Vreg a; Instr.Dir m ]
           ~words ?cycles);
      Machine.Vreg d
    | _ -> bad opcode
  in
  let acc_imm opcode : Machine.emitter =
   fun ctx node children ->
    match (children, node) with
    | [ Machine.Vreg a ], Ir.Tree.Binop (_, _, Ir.Tree.Const k) ->
      let d = Machine.fresh_vreg ctx "acc" in
      Machine.emit ctx
        (Instr.make opcode ~operands:[ Instr.Imm k ]
           ~defs:[ Instr.Vreg d ]
           ~uses:[ Instr.Vreg a ]);
      Machine.Vreg d
    | _ -> bad opcode
  in
  let acc_unary ?(words = 1) ?cycles opcode : Machine.emitter =
   fun ctx _node children ->
    match children with
    | [ Machine.Vreg a ] ->
      let d = Machine.fresh_vreg ctx "acc" in
      Machine.emit ctx
        (Instr.make opcode ~defs:[ Instr.Vreg d ] ~uses:[ Instr.Vreg a ]
           ~words ?cycles);
      Machine.Vreg d
    | _ -> bad opcode
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
  let emitters : (string * Machine.emitter) list =
    [
      ( "mem_ref",
        fun _ctx node _children ->
          match node with
          | Ir.Tree.Ref r -> Machine.Mem r
          | _ -> bad "mem_ref" );
      ( "mem_const",
        fun ctx node _children ->
          match node with
          | Ir.Tree.Const k -> Machine.Mem (Machine.const_cell ctx k)
          | _ -> bad "mem_const" );
      ( "ld",
        fun ctx _node children ->
          match children with
          | [ Machine.Mem m ] -> Machine.Vreg (load ctx m)
          | _ -> bad "ld" );
      ( "ldi",
        fun ctx node _children ->
          match node with
          | Ir.Tree.Const k -> Machine.Vreg (load_imm ctx k)
          | _ -> bad "ldi" );
      ("add", acc_mem "ADD");
      ("addi", acc_imm "ADDI");
      ("sub", acc_mem "SUB");
      ("and", acc_mem "AND");
      ("or", acc_mem "OR");
      ("xor", acc_mem "XOR");
      ("shl", acc_imm "SHL");
      ("shr", acc_imm "SHR");
      ("neg", acc_unary "NEG");
      ("not", acc_unary "NOT");
      ("mul", acc_mem "MUL");
      ("mul_soft", acc_mem ~words:2 ~cycles:17 "MULS");
      ( "mul_via_mac",
        fun ctx _node children ->
          match children with
          | [ Machine.Mem m1; Machine.Mem m2 ] ->
            let z = load_imm ctx 0 in
            mac_emit ctx z m1 m2
          | _ -> bad "mul_via_mac" );
      ( "mac",
        fun ctx _node children ->
          match children with
          | [ Machine.Vreg a; Machine.Mem m1; Machine.Mem m2 ] ->
            mac_emit ctx a m1 m2
          | _ -> bad "mac" );
      ("sat", acc_unary "SAT");
      ("sat_soft", acc_unary ~words:3 ~cycles:3 "SATS");
      ( "spill_st",
        fun ctx _node children ->
          match children with
          | [ Machine.Vreg v ] ->
            let s = Machine.fresh_scratch ctx in
            store_from ctx s v;
            Machine.Mem s
          | _ -> bad "spill_st" );
    ]
  in
  let store ctx dst (value : Machine.value) =
    match value with
    | Machine.Vreg v -> store_from ctx dst v
    | Machine.Mem src -> store_from ctx dst (load ctx src)
    | Machine.Imm k when fits_imm k -> store_from ctx dst (load_imm ctx k)
    | Machine.Imm k -> store_from ctx dst (load ctx (Machine.const_cell ctx k))
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
      load_ar =
        (fun ctx v r ->
          Machine.emit ctx
            (Instr.make "LDAR"
               ~operands:[ Instr.Vreg v; Instr.Adr r ]
               ~defs:[ Instr.Vreg v ] ~funit:"ctl"));
      add_ar = None;
    }
  in
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
            (Instr.make "LDARI"
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
          let a = load ctx cell in
          let a' = Machine.fresh_vreg ctx "acc" in
          Machine.emit ctx
            (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
               ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
          store_from ctx cell a');
    }
  in
  let spills =
    [
      ( "acc",
        {
          Machine.spill_store =
            (fun v m ->
              Instr.make "ST"
                ~operands:[ Instr.Dir m ]
                ~defs:[ Instr.Dir m ] ~uses:[ Instr.Vreg v ] ~funit:"move");
          spill_load =
            (fun m v ->
              Instr.make "LD"
                ~operands:[ Instr.Dir m ]
                ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
        } );
    ]
  in
  (* Staged: operand shapes and the opcode dispatch resolve once per
     instruction; see the note on [Machine.t.semantics]. *)
  let semantics layout (i : Instr.t) : Mstate.t -> unit =
    let op n = List.nth i.Instr.operands n in
    let rd n = Mstate.reader layout (op n) in
    let use n = Mstate.reader layout (List.nth i.Instr.uses n) in
    let def () =
      match i.Instr.defs with
      | d :: _ -> Mstate.writer layout d
      | [] ->
        invalid_arg (name ^ ": " ^ i.Instr.opcode ^ " without destination")
    in
    let unary f =
      let w = def () and a = use 0 in
      fun st -> w st (f (a st))
    in
    let use_op f =
      (* binary over the first use and the first operand, the ASIP's
         accumulator-machine shape *)
      let w = def () and a = use 0 and k = rd 0 in
      fun st -> w st (f (a st) (k st))
    in
    match i.Instr.opcode with
    | "LD" | "LDI" ->
      let w = def () and r0 = rd 0 in
      fun st -> w st (r0 st)
    | "ST" ->
      let w0 = Mstate.writer layout (op 0) and a = use 0 in
      fun st -> w0 st (a st)
    | "ADD" | "ADDI" -> use_op ( + )
    | "SUB" -> use_op ( - )
    | "AND" -> use_op ( land )
    | "OR" -> use_op ( lor )
    | "XOR" -> use_op ( lxor )
    | "SHL" -> use_op (Ir.Op.eval_binop Ir.Op.Shl)
    | "SHR" -> use_op (Ir.Op.eval_binop Ir.Op.Shr)
    | "NEG" -> unary (fun a -> -a)
    | "NOT" -> unary lnot
    | "MUL" | "MULS" -> use_op ( * )
    | "MAC" ->
      let w = def () and a = use 0 and k0 = rd 0 and k1 = rd 1 in
      fun st -> w st (a st + (k0 st * k1 st))
    | "SAT" | "SATS" -> unary (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
    | "LDC" | "LDAR" ->
      let w0 = Mstate.writer layout (op 0) and r1 = rd 1 in
      fun st -> w0 st (r1 st)
    | "DJNZ" ->
      let w0 = Mstate.writer layout (op 0) and r0 = rd 0 in
      fun st -> w0 st (r0 st - 1)
    | "LDARI" ->
      let w0 = Mstate.writer layout (op 0) in
      let r1 = rd 1 and r2 = rd 2 and r3 = rd 3 in
      fun st -> w0 st (r1 st + (r3 st * r2 st))
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
    emitters;
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
    default_bank = "data";
    loop_;
    agu = Some agu;
    naive_agu = Some naive_agu;
    spills;
    semantics;
    classification =
      {
        Classify.availability = Classify.Core;
        domain = Classify.Dsp;
        application = Classify.Asip;
      };
  }
