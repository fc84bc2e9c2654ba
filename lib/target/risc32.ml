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

let rules =
  [
    rule ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any;
    rule ~name:"mem_const" ~lhs:"mem" ~cost:1 Burg.Pattern.Const_any;
    rule ~name:"lw" ~lhs:"g" ~cost:1 (nt "mem");
    rule ~name:"li" ~lhs:"g" ~cost:1 Burg.Pattern.Const_any;
    rule ~name:"addi" ~lhs:"g" ~cost:1 ~guard:imm12
      (binop Ir.Op.Add (nt "g") Burg.Pattern.Const_any);
    rule ~name:"add" ~lhs:"g" ~cost:1 (binop Ir.Op.Add (nt "g") (nt "g"));
    rule ~name:"sub" ~lhs:"g" ~cost:1 (binop Ir.Op.Sub (nt "g") (nt "g"));
    rule ~name:"mul" ~lhs:"g" ~cost:1 (binop Ir.Op.Mul (nt "g") (nt "g"));
    rule ~name:"and" ~lhs:"g" ~cost:1 (binop Ir.Op.And (nt "g") (nt "g"));
    rule ~name:"or" ~lhs:"g" ~cost:1 (binop Ir.Op.Or (nt "g") (nt "g"));
    rule ~name:"xor" ~lhs:"g" ~cost:1 (binop Ir.Op.Xor (nt "g") (nt "g"));
    rule ~name:"slli" ~lhs:"g" ~cost:1 ~guard:shift_ok
      (binop Ir.Op.Shl (nt "g") Burg.Pattern.Const_any);
    rule ~name:"srai" ~lhs:"g" ~cost:1 ~guard:shift_ok
      (binop Ir.Op.Shr (nt "g") Burg.Pattern.Const_any);
    rule ~name:"neg" ~lhs:"g" ~cost:1 (unop Ir.Op.Neg (nt "g"));
    rule ~name:"not" ~lhs:"g" ~cost:1 (unop Ir.Op.Not (nt "g"));
    (* saturation emulated by a compare-and-clamp sequence *)
    rule ~name:"ssat" ~lhs:"g" ~cost:3 (unop Ir.Op.Sat (nt "g"));
    rule ~name:"spill_sw" ~lhs:"mem" ~cost:1 (nt "g");
  ]

let grammar = Burg.Grammar.make ~name:"risc32" ~start:"g" rules

let bad name = invalid_arg ("risc32: bad children for " ^ name)

let load ctx m =
  let v = Machine.fresh_vreg ctx "g" in
  Machine.emit ctx
    (Instr.make "LW"
       ~operands:[ Instr.Dir m ]
       ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
  v

let store_from ctx dst v =
  Machine.emit ctx
    (Instr.make "SW"
       ~operands:[ Instr.Dir dst ]
       ~defs:[ Instr.Dir dst ] ~uses:[ Instr.Vreg v ] ~funit:"move")

let load_imm ctx k =
  let v = Machine.fresh_vreg ctx "g" in
  Machine.emit ctx
    (Instr.make "LI" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg v ]
       ~funit:"move");
  v

let alu ?(words = 1) ?cycles ctx opcode ~operands uses =
  let d = Machine.fresh_vreg ctx "g" in
  Machine.emit ctx
    (Instr.make opcode ~operands ~defs:[ Instr.Vreg d ] ~words ?cycles
       ~uses:(List.map (fun v -> Instr.Vreg v) uses));
  Machine.Vreg d

let binary opcode : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a; Machine.Vreg b ] -> alu ctx opcode ~operands:[] [ a; b ]
  | _ -> bad opcode

let binary_imm opcode : Machine.emitter =
 fun ctx node children ->
  match (children, node) with
  | [ Machine.Vreg a ], Ir.Tree.Binop (_, _, Ir.Tree.Const k) ->
    alu ctx opcode ~operands:[ Instr.Imm k ] [ a ]
  | _ -> bad opcode

let unary ?words ?cycles opcode : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a ] -> alu ?words ?cycles ctx opcode ~operands:[] [ a ]
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
    ( "lw",
      fun ctx _node children ->
        match children with
        | [ Machine.Mem m ] -> Machine.Vreg (load ctx m)
        | _ -> bad "lw" );
    ( "li",
      fun ctx node _children ->
        match node with
        | Ir.Tree.Const k -> Machine.Vreg (load_imm ctx k)
        | _ -> bad "li" );
    ("addi", binary_imm "ADDI");
    ("add", binary "ADD");
    ("sub", binary "SUB");
    ("mul", binary "MUL");
    ("and", binary "AND");
    ("or", binary "OR");
    ("xor", binary "XOR");
    ("slli", binary_imm "SLLI");
    ("srai", binary_imm "SRAI");
    ("neg", unary "NEG");
    ("not", unary "NOT");
    ("ssat", unary ~words:3 ~cycles:3 "SSAT");
    ( "spill_sw",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg v ] ->
          let s = Machine.fresh_scratch ctx in
          store_from ctx s v;
          Machine.Mem s
        | _ -> bad "spill_sw" );
  ]

let store ctx dst (value : Machine.value) =
  match value with
  | Machine.Vreg v -> store_from ctx dst v
  | Machine.Mem src -> store_from ctx dst (load ctx src)
  | Machine.Imm k -> store_from ctx dst (load_imm ctx k)

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
  {
    Machine.ar_cls = "g";
    ar_limit = 8;
    load_ar =
      (fun ctx v r ->
        Machine.emit ctx
          (Instr.make "LA"
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
          (Instr.make "LAI"
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
        let a' = Machine.fresh_vreg ctx "g" in
        Machine.emit ctx
          (Instr.make "ADDI" ~operands:[ Instr.Imm 1 ]
             ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ]);
        store_from ctx cell a');
  }

let spills =
  [
    ( "g",
      {
        Machine.spill_store =
          (fun v m ->
            Instr.make "SW"
              ~operands:[ Instr.Dir m ]
              ~defs:[ Instr.Dir m ] ~uses:[ Instr.Vreg v ] ~funit:"move");
        spill_load =
          (fun m v ->
            Instr.make "LW"
              ~operands:[ Instr.Dir m ]
              ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
      } );
  ]

(* Staged: operand shapes and the opcode dispatch resolve once per
   instruction; see the note on [Machine.t.semantics]. *)
let semantics layout (i : Instr.t) : Mstate.t -> unit =
  let op n = List.nth i.Instr.operands n in
  let rd n = Mstate.reader layout (op n) in
  let use n = Mstate.reader layout (List.nth i.Instr.uses n) in
  let def () =
    match i.Instr.defs with
    | d :: _ -> Mstate.writer layout d
    | [] -> invalid_arg ("risc32: " ^ i.Instr.opcode ^ " without destination")
  in
  (* all-register shapes — the common case after allocation — flatten to
     direct slot accesses with no operand-closure chain *)
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
  let shift f =
    match (i.Instr.defs, i.Instr.uses, i.Instr.operands) with
    | Instr.Reg d :: _, Instr.Reg a :: _, Instr.Imm k :: _ ->
      let sd = Mstate.reg_slot d and sa = Mstate.reg_slot a in
      fun st -> Mstate.write_slot st sd (f (Mstate.read_slot st sa) k)
    | _ ->
      let w = def () and a = use 0 and k = rd 0 in
      fun st -> w st (f (a st) (k st))
  in
  match i.Instr.opcode with
  | "LW" -> (
    let r0 = rd 0 in
    match i.Instr.defs with
    | Instr.Reg d :: _ ->
      let sd = Mstate.reg_slot d in
      fun st -> Mstate.write_slot st sd (r0 st)
    | _ ->
      let w = def () in
      fun st -> w st (r0 st))
  | "SW" -> (
    let w0 = Mstate.writer layout (op 0) in
    match i.Instr.uses with
    | Instr.Reg a :: _ ->
      let sa = Mstate.reg_slot a in
      fun st -> w0 st (Mstate.read_slot st sa)
    | _ ->
      let a = use 0 in
      fun st -> w0 st (a st))
  | "LI" -> (
    match i.Instr.operands with
    | [ Instr.Imm k ] ->
      let w = def () in
      fun st -> w st k
    | [ c; Instr.Imm k ] ->
      let wc = Mstate.writer layout c in
      fun st -> wc st k
    | _ -> invalid_arg "risc32: LI operands")
  | "ADDI" -> shift ( + )
  | "ADD" -> binary ( + )
  | "SUB" -> binary ( - )
  | "MUL" -> binary ( * )
  | "AND" -> binary ( land )
  | "OR" -> binary ( lor )
  | "XOR" -> binary ( lxor )
  | "SLLI" -> shift (Ir.Op.eval_binop Ir.Op.Shl)
  | "SRAI" -> shift (Ir.Op.eval_binop Ir.Op.Shr)
  | "NEG" -> unary (fun a -> -a)
  | "NOT" -> unary lnot
  | "SSAT" -> unary (Ir.Op.eval_unop Ir.Op.Sat ~width:16)
  | "BNEZ" -> fun _ -> ()
  | "LA" ->
    let w0 = Mstate.writer layout (op 0) and r1 = rd 1 in
    fun st -> w0 st (r1 st)
  | "LAI" ->
    let w0 = Mstate.writer layout (op 0) in
    let r1 = rd 1 and r2 = rd 2 and r3 = rd 3 in
    fun st -> w0 st (r1 st + (r3 st * r2 st))
  | opc -> invalid_arg ("risc32: cannot execute " ^ opc)

let machine =
  {
    Machine.name = "risc32";
    description = "conventional 32-register load/store RISC baseline";
    word_bits = 16;
    grammar;
    emitters;
    store;
    regfile =
      Regfile.make
        [ { Regfile.cls_name = "g"; count = 32; role = "general registers" } ];
    modes = [];
    mode_change =
      (fun m v -> invalid_arg (Printf.sprintf "risc32: no mode %s=%d" m v));
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
        Classify.availability = Classify.Package;
        domain = Classify.General_purpose;
        application = Classify.Fixed_architecture;
      };
  }
