(* TMS320C25-style accumulator DSP.  One accumulator, a T/P multiplier
   pair, eight address registers with post-modify addressing, a hardware
   overflow (saturation) mode, and a single data memory bank.

   The grammar models the classic accumulator idiom: memory operands feed
   the ALU through direct or indirect addressing, multiplication goes
   through LT/MPY into the product register, and APAC/SPAC fold products
   into the accumulator.  Saturating statements compile to the same opcodes
   under the OVM mode; the mode optimizer places SOVM/ROVM changes. *)

let acc = { Instr.cls = "acc"; idx = 0 }
let treg = { Instr.cls = "t"; idx = 0 }
let preg = { Instr.cls = "p"; idx = 0 }
let ar i = { Instr.cls = "ar"; idx = i }

let ovm0 = ("ovm", 0)
let ovm1 = ("ovm", 1)

let is_leaf = function
  | Ir.Tree.Const _ | Ir.Tree.Ref _ -> true
  | Ir.Tree.Unop _ | Ir.Tree.Binop _ -> false

(* ---- grammar ----------------------------------------------------------- *)

let rule = Burg.Rule.make
let nt n = Burg.Pattern.Nonterm n
let binop op a b = Burg.Pattern.Binop (op, a, b)
let unop op a = Burg.Pattern.Unop (op, a)

(* The constant operand of an [x op k] rule.  A guard receives the rule's
   root node, which for the saturating twins is the enclosing [Sat]. *)
let imm_operand = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> Some k
  | Ir.Tree.Unop (Ir.Op.Sat, Ir.Tree.Binop (_, _, Ir.Tree.Const k)) -> Some k
  | _ -> None

let imm8 t =
  match imm_operand t with Some k -> k >= 0 && k <= 255 | None -> false

let shift_ok t =
  match imm_operand t with Some k -> k >= 0 && k <= 15 | None -> false

let shift_cost t = match imm_operand t with Some k -> k | None -> 1

(* Guards that force the canonical accumulator orderings: [apac] wants the
   product on the right of a non-trivial left operand, [apac_rev] folds a
   product into a freshly loaded leaf.  Together they pick the classic
   LT/MPY/LAC/APAC schedule and never leave the product register live
   across another multiply. *)
let left_not_leaf = function
  | Ir.Tree.Binop (_, l, _) -> not (is_leaf l)
  | Ir.Tree.Unop (_, Ir.Tree.Binop (_, l, _)) -> not (is_leaf l)
  | _ -> false

let right_is_leaf = function
  | Ir.Tree.Binop (_, _, r) -> is_leaf r
  | Ir.Tree.Unop (_, Ir.Tree.Binop (_, _, r)) -> is_leaf r
  | _ -> false

let rules =
  [
    rule ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any;
    rule ~name:"mem_const" ~lhs:"mem" ~cost:1 Burg.Pattern.Const_any;
    (* multiplier path *)
    rule ~name:"lt" ~lhs:"t" ~cost:1 (nt "mem");
    rule ~name:"mpy" ~lhs:"p" ~cost:1 (binop Ir.Op.Mul (nt "t") (nt "mem"));
    rule ~name:"mpyk" ~lhs:"p" ~cost:1
      ~guard:(function
        | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> k >= -4096 && k <= 4095
        | _ -> false)
      (binop Ir.Op.Mul (nt "t") Burg.Pattern.Const_any);
    (* accumulator loads *)
    rule ~name:"zac" ~lhs:"acc" ~cost:1 (Burg.Pattern.Const_eq 0);
    rule ~name:"lack" ~lhs:"acc" ~cost:1
      ~guard:(function
        | Ir.Tree.Const k -> k >= 0 && k <= 255
        | _ -> false)
      Burg.Pattern.Const_any;
    rule ~name:"lac" ~lhs:"acc" ~cost:1 (nt "mem");
    rule ~name:"pac" ~lhs:"acc" ~cost:1 (nt "p");
    (* accumulator arithmetic; apac_rev before add so the LT/MPY/LAC/APAC
       schedule wins the cost tie against PAC/ADD *)
    rule ~name:"apac" ~lhs:"acc" ~cost:1 ~guard:left_not_leaf
      (binop Ir.Op.Add (nt "acc") (nt "p"));
    rule ~name:"apac_rev" ~lhs:"acc" ~cost:1 ~guard:right_is_leaf
      (binop Ir.Op.Add (nt "p") (nt "acc"));
    rule ~name:"spac" ~lhs:"acc" ~cost:1 (binop Ir.Op.Sub (nt "acc") (nt "p"));
    rule ~name:"add" ~lhs:"acc" ~cost:1 (binop Ir.Op.Add (nt "acc") (nt "mem"));
    rule ~name:"addk" ~lhs:"acc" ~cost:1 ~guard:imm8
      (binop Ir.Op.Add (nt "acc") Burg.Pattern.Const_any);
    rule ~name:"sub" ~lhs:"acc" ~cost:1 (binop Ir.Op.Sub (nt "acc") (nt "mem"));
    rule ~name:"subk" ~lhs:"acc" ~cost:1 ~guard:imm8
      (binop Ir.Op.Sub (nt "acc") Burg.Pattern.Const_any);
    rule ~name:"and" ~lhs:"acc" ~cost:1 (binop Ir.Op.And (nt "acc") (nt "mem"));
    rule ~name:"or" ~lhs:"acc" ~cost:1 (binop Ir.Op.Or (nt "acc") (nt "mem"));
    rule ~name:"xor" ~lhs:"acc" ~cost:1 (binop Ir.Op.Xor (nt "acc") (nt "mem"));
    rule ~name:"neg" ~lhs:"acc" ~cost:1 (unop Ir.Op.Neg (nt "acc"));
    rule ~name:"cmpl" ~lhs:"acc" ~cost:1 (unop Ir.Op.Not (nt "acc"));
    rule ~name:"sfl" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
      (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any);
    rule ~name:"sfr" ~lhs:"acc" ~cost:1 ~guard:shift_ok ~dyn_cost:shift_cost
      (binop Ir.Op.Shr (nt "acc") Burg.Pattern.Const_any);
    (* saturating twins: same opcodes under OVM; they must precede sat_id
       so they win the cost tie (the chain would drop the saturation) *)
    rule ~name:"sat_pac" ~lhs:"acc" ~cost:1 (unop Ir.Op.Sat (nt "p"));
    rule ~name:"sat_apac" ~lhs:"acc" ~cost:1 ~guard:left_not_leaf
      (unop Ir.Op.Sat (binop Ir.Op.Add (nt "acc") (nt "p")));
    rule ~name:"sat_apac_rev" ~lhs:"acc" ~cost:1 ~guard:right_is_leaf
      (unop Ir.Op.Sat (binop Ir.Op.Add (nt "p") (nt "acc")));
    rule ~name:"sat_add" ~lhs:"acc" ~cost:1
      (unop Ir.Op.Sat (binop Ir.Op.Add (nt "acc") (nt "mem")));
    rule ~name:"sat_addk" ~lhs:"acc" ~cost:1 ~guard:imm8
      (unop Ir.Op.Sat (binop Ir.Op.Add (nt "acc") Burg.Pattern.Const_any));
    rule ~name:"sat_spac" ~lhs:"acc" ~cost:1
      (unop Ir.Op.Sat (binop Ir.Op.Sub (nt "acc") (nt "p")));
    rule ~name:"sat_sub" ~lhs:"acc" ~cost:1
      (unop Ir.Op.Sat (binop Ir.Op.Sub (nt "acc") (nt "mem")));
    rule ~name:"sat_subk" ~lhs:"acc" ~cost:1 ~guard:imm8
      (unop Ir.Op.Sat (binop Ir.Op.Sub (nt "acc") Burg.Pattern.Const_any));
    rule ~name:"sat_neg" ~lhs:"acc" ~cost:1
      (unop Ir.Op.Sat (unop Ir.Op.Neg (nt "acc")));
    rule ~name:"sat_sfl" ~lhs:"acc" ~cost:1 ~guard:shift_ok
      ~dyn_cost:shift_cost
      (unop Ir.Op.Sat (binop Ir.Op.Shl (nt "acc") Burg.Pattern.Const_any));
    rule ~name:"sat_id" ~lhs:"acc" ~cost:0 (unop Ir.Op.Sat (nt "acc"));
    (* accumulator results can be parked in a scratch word *)
    rule ~name:"spill_sacl" ~lhs:"mem" ~cost:1 (nt "acc");
  ]

let grammar = Burg.Grammar.make ~name:"tic25" ~start:"acc" rules

(* ---- emitters ---------------------------------------------------------- *)

let bad_children name = invalid_arg ("tic25: bad children for " ^ name)

let const_of = function
  | Ir.Tree.Binop (_, _, Ir.Tree.Const k) -> k
  | Ir.Tree.Unop (_, Ir.Tree.Binop (_, _, Ir.Tree.Const k)) -> k
  | Ir.Tree.Const k -> k
  | _ -> invalid_arg "tic25: constant expected"

let emit_load ctx m =
  let a = Machine.fresh_vreg ctx "acc" in
  Machine.emit ctx
    (Instr.make "LAC"
       ~operands:[ Instr.Dir m ]
       ~defs:[ Instr.Vreg a ] ~uses:[ Instr.Dir m ] ~funit:"move");
  a

let emit_store ctx dst a =
  Machine.emit ctx
    (Instr.make "SACL"
       ~operands:[ Instr.Dir dst ]
       ~defs:[ Instr.Dir dst ] ~uses:[ Instr.Vreg a ] ~funit:"move")

(* acc <- acc OP operand, with the accumulator flowing through fresh
   virtual registers so liveness is explicit. *)
let acc_op ctx opcode ?mode_req ~operands ~uses () =
  let a' = Machine.fresh_vreg ctx "acc" in
  Machine.emit ctx
    (Instr.make opcode ~operands ~defs:[ Instr.Vreg a' ] ~uses ?mode_req);
  Machine.Vreg a'

let binary opcode ?(mode_req = ovm0) () : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a; Machine.Mem m ] ->
    acc_op ctx opcode ~mode_req
      ~operands:[ Instr.Dir m ]
      ~uses:[ Instr.Vreg a; Instr.Dir m ]
      ()
  | _ -> bad_children opcode

let binary_imm opcode ?(mode_req = ovm0) () : Machine.emitter =
 fun ctx node children ->
  match children with
  | [ Machine.Vreg a ] ->
    acc_op ctx opcode ~mode_req
      ~operands:[ Instr.Imm (const_of node) ]
      ~uses:[ Instr.Vreg a ] ()
  | _ -> bad_children opcode

let fold_product opcode mode_req ctx children_ordered =
  match children_ordered with
  | a, p ->
    acc_op ctx opcode ~mode_req ~operands:[]
      ~uses:[ Instr.Vreg a; Instr.Vreg p ]
      ()

let apac_emitter ~rev mode_req : Machine.emitter =
 fun ctx _node children ->
  match (rev, children) with
  | false, [ Machine.Vreg a; Machine.Vreg p ]
  | true, [ Machine.Vreg p; Machine.Vreg a ] ->
    fold_product "APAC" mode_req ctx (a, p)
  | _ -> bad_children "APAC"

let spac_emitter mode_req : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a; Machine.Vreg p ] -> fold_product "SPAC" mode_req ctx (a, p)
  | _ -> bad_children "SPAC"

let pac_emitter mode_req : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg p ] ->
    acc_op ctx "PAC" ~mode_req ~operands:[] ~uses:[ Instr.Vreg p ] ()
  | _ -> bad_children "PAC"

let shift_emitter opcode mode_req : Machine.emitter =
 fun ctx node children ->
  match children with
  | [ (Machine.Vreg a0 as v) ] ->
    let k = match imm_operand node with Some k -> k | None -> 1 in
    if k = 0 then v
    else begin
      let cur = ref a0 in
      for _ = 1 to k do
        let a' = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx
          (Instr.make opcode
             ~defs:[ Instr.Vreg a' ]
             ~uses:[ Instr.Vreg !cur ] ~mode_req);
        cur := a'
      done;
      Machine.Vreg !cur
    end
  | _ -> bad_children opcode

let unary opcode ?mode_req () : Machine.emitter =
 fun ctx _node children ->
  match children with
  | [ Machine.Vreg a ] ->
    acc_op ctx opcode ?mode_req ~operands:[] ~uses:[ Instr.Vreg a ] ()
  | _ -> bad_children opcode

let emitters : (string * Machine.emitter) list =
  [
    ( "mem_ref",
      fun _ctx node _children ->
        match node with
        | Ir.Tree.Ref r -> Machine.Mem r
        | _ -> bad_children "mem_ref" );
    ( "mem_const",
      fun ctx node _children ->
        match node with
        | Ir.Tree.Const k -> Machine.Mem (Machine.const_cell ctx k)
        | _ -> bad_children "mem_const" );
    ( "lt",
      fun ctx _node children ->
        match children with
        | [ Machine.Mem m ] ->
          let t = Machine.fresh_vreg ctx "t" in
          Machine.emit ctx
            (Instr.make "LT"
               ~operands:[ Instr.Dir m ]
               ~defs:[ Instr.Vreg t ] ~uses:[ Instr.Dir m ] ~funit:"move");
          Machine.Vreg t
        | _ -> bad_children "LT" );
    ( "mpy",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg t; Machine.Mem m ] ->
          let p = Machine.fresh_vreg ctx "p" in
          Machine.emit ctx
            (Instr.make "MPY"
               ~operands:[ Instr.Dir m ]
               ~defs:[ Instr.Vreg p ]
               ~uses:[ Instr.Vreg t; Instr.Dir m ]);
          Machine.Vreg p
        | _ -> bad_children "MPY" );
    ( "mpyk",
      fun ctx node children ->
        match children with
        | [ Machine.Vreg t ] ->
          let p = Machine.fresh_vreg ctx "p" in
          Machine.emit ctx
            (Instr.make "MPYK"
               ~operands:[ Instr.Imm (const_of node) ]
               ~defs:[ Instr.Vreg p ] ~uses:[ Instr.Vreg t ]);
          Machine.Vreg p
        | _ -> bad_children "MPYK" );
    ( "zac",
      fun ctx _node _children ->
        let a = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx (Instr.make "ZAC" ~defs:[ Instr.Vreg a ]);
        Machine.Vreg a );
    ( "lack",
      fun ctx node _children ->
        let a = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx
          (Instr.make "LACK"
             ~operands:[ Instr.Imm (const_of node) ]
             ~defs:[ Instr.Vreg a ]);
        Machine.Vreg a );
    ( "lac",
      fun ctx _node children ->
        match children with
        | [ Machine.Mem m ] -> Machine.Vreg (emit_load ctx m)
        | _ -> bad_children "LAC" );
    ("pac", pac_emitter ovm0);
    ("apac", apac_emitter ~rev:false ovm0);
    ("apac_rev", apac_emitter ~rev:true ovm0);
    ("spac", spac_emitter ovm0);
    ("add", binary "ADD" ());
    ("addk", binary_imm "ADDK" ());
    ("sub", binary "SUB" ());
    ("subk", binary_imm "SUBK" ());
    ("and", binary "AND" ~mode_req:ovm0 ());
    ("or", binary "OR" ~mode_req:ovm0 ());
    ("xor", binary "XOR" ~mode_req:ovm0 ());
    ("neg", unary "NEG" ~mode_req:ovm0 ());
    ("cmpl", unary "CMPL" ());
    ("sfl", shift_emitter "SFL" ovm0);
    ("sfr", shift_emitter "SFR" ovm0);
    ("sat_pac", pac_emitter ovm1);
    ("sat_apac", apac_emitter ~rev:false ovm1);
    ("sat_apac_rev", apac_emitter ~rev:true ovm1);
    ("sat_add", binary "ADD" ~mode_req:ovm1 ());
    ("sat_addk", binary_imm "ADDK" ~mode_req:ovm1 ());
    ("sat_spac", spac_emitter ovm1);
    ("sat_sub", binary "SUB" ~mode_req:ovm1 ());
    ("sat_subk", binary_imm "SUBK" ~mode_req:ovm1 ());
    ("sat_neg", unary "NEG" ~mode_req:ovm1 ());
    ("sat_sfl", shift_emitter "SFL" ovm1);
    ( "sat_id",
      fun _ctx _node children ->
        match children with [ v ] -> v | _ -> bad_children "sat" );
    ( "spill_sacl",
      fun ctx _node children ->
        match children with
        | [ Machine.Vreg v ] ->
          let scratch = Machine.fresh_scratch ctx in
          emit_store ctx scratch v;
          Machine.Mem scratch
        | _ -> bad_children "spill" );
  ]

(* ---- machine record ---------------------------------------------------- *)

let store ctx dst (value : Machine.value) =
  match value with
  | Machine.Vreg v -> emit_store ctx dst v
  | Machine.Mem src -> emit_store ctx dst (emit_load ctx src)
  | Machine.Imm 0 ->
    let a = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx (Instr.make "ZAC" ~defs:[ Instr.Vreg a ]);
    emit_store ctx dst a
  | Machine.Imm k when k >= 0 && k <= 255 ->
    let a = Machine.fresh_vreg ctx "acc" in
    Machine.emit ctx
      (Instr.make "LACK" ~operands:[ Instr.Imm k ] ~defs:[ Instr.Vreg a ]);
    emit_store ctx dst a
  | Machine.Imm k -> emit_store ctx dst (emit_load ctx (Machine.const_cell ctx k))

let mode_change m v =
  match (m, v) with
  | "ovm", 1 -> Instr.make "SOVM" ~mode_set:("ovm", 1) ~funit:"ctl"
  | "ovm", 0 -> Instr.make "ROVM" ~mode_set:("ovm", 0) ~funit:"ctl"
  | _ -> invalid_arg (Printf.sprintf "tic25: no mode %s=%d" m v)

let loop_ =
  {
    Machine.counter_cls = "ar";
    loop_pre =
      (fun ctx ~count ->
        let c = Machine.fresh_vreg ctx "ar" in
        Machine.emit ctx
          (Instr.make "LARK"
             ~operands:[ Instr.Vreg c; Instr.Imm (count - 1) ]
             ~defs:[ Instr.Vreg c ] ~funit:"ctl");
        c);
    loop_close =
      (fun ctx c ->
        Machine.emit ctx
          (Instr.make "BANZ"
             ~operands:[ Instr.Vreg c ]
             ~defs:[ Instr.Vreg c ] ~uses:[ Instr.Vreg c ] ~words:2 ~cycles:2
             ~funit:"ctl"));
  }

let agu =
  {
    Machine.ar_cls = "ar";
    ar_limit = 8;
    load_ar =
      (fun ctx v r ->
        Machine.emit ctx
          (Instr.make "LARK"
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
          (Instr.make "LARI"
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
    zero_cell =
      (fun ctx cell ->
        let a = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx (Instr.make "ZAC" ~defs:[ Instr.Vreg a ]);
        emit_store ctx cell a);
    incr_cell =
      (fun ctx cell ->
        let a = emit_load ctx cell in
        let a' = Machine.fresh_vreg ctx "acc" in
        Machine.emit ctx
          (Instr.make "ADDK" ~operands:[ Instr.Imm 1 ]
             ~defs:[ Instr.Vreg a' ] ~uses:[ Instr.Vreg a ] ~mode_req:ovm0);
        emit_store ctx cell a');
  }

let spills =
  [
    ( "acc",
      {
        Machine.spill_store =
          (fun v m ->
            Instr.make "SACL"
              ~operands:[ Instr.Dir m ]
              ~defs:[ Instr.Dir m ] ~uses:[ Instr.Vreg v ] ~funit:"move");
        spill_load =
          (fun m v ->
            Instr.make "LAC"
              ~operands:[ Instr.Dir m ]
              ~defs:[ Instr.Vreg v ] ~uses:[ Instr.Dir m ] ~funit:"move");
      } );
  ]

(* ---- executable semantics ---------------------------------------------- *)

(* Staged: the opcode match, operand-list walks, and operand shape dispatch
   run once per instruction; the returned closure only touches machine
   state.  [Machine.exec] recovers the unstaged behaviour for the
   interpretive engine, so both simulator engines share this single
   definition of the instruction set. *)
(* Slot numbers for the architectural registers and the OVM mode, resolved
   once at module initialization; the staged closures below then run on
   direct (inlinable) array-slot accesses. *)
let s_acc = Mstate.reg_slot acc
let s_treg = Mstate.reg_slot treg
let s_preg = Mstate.reg_slot preg
let s_ovm = Mstate.mode_slot "ovm"
let rd_acc st = Mstate.read_slot st s_acc
let wr_acc st v = Mstate.write_slot st s_acc v
let rd_treg st = Mstate.read_slot st s_treg
let wr_treg st v = Mstate.write_slot st s_treg v
let rd_preg st = Mstate.read_slot st s_preg
let wr_preg st v = Mstate.write_slot st s_preg v

(* [sat_if] splits so the dominant OVM=0 path is small enough to inline:
   one mode-slot read, one compare. *)
let sat_slow ovm v =
  if ovm = 1 then Ir.Op.eval_unop Ir.Op.Sat ~width:16 v
  else if ovm = Mstate.absent then invalid_arg "Mstate: unknown mode ovm"
  else v

let sat_if st v =
  let ovm = Mstate.mode_read_slot st s_ovm in
  if ovm = 0 then v else sat_slow ovm v

let semantics layout (i : Instr.t) : Mstate.t -> unit =
  let op n = List.nth i.Instr.operands n in
  let rd n = Mstate.reader layout (op n) in
  match i.Instr.opcode with
  | "ZAC" -> fun st -> wr_acc st 0
  | "LACK" | "LAC" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (r0 st)
  | "SACL" ->
    let w0 = Mstate.writer layout (op 0) in
    fun st -> w0 st (rd_acc st)
  | "ADD" | "ADDK" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (sat_if st (rd_acc st + r0 st))
  | "SUB" | "SUBK" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (sat_if st (rd_acc st - r0 st))
  | "AND" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (rd_acc st land r0 st)
  | "OR" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (rd_acc st lor r0 st)
  | "XOR" ->
    let r0 = rd 0 in
    fun st -> wr_acc st (rd_acc st lxor r0 st)
  | "NEG" -> fun st -> wr_acc st (sat_if st (-rd_acc st))
  | "CMPL" -> fun st -> wr_acc st (lnot (rd_acc st))
  | "SFL" -> fun st -> wr_acc st (sat_if st (rd_acc st * 2))
  | "SFR" -> fun st -> wr_acc st (rd_acc st asr 1)
  | "LT" ->
    let r0 = rd 0 in
    fun st -> wr_treg st (r0 st)
  | "MPY" | "MPYK" ->
    let r0 = rd 0 in
    fun st -> wr_preg st (rd_treg st * r0 st)
  | "PAC" -> fun st -> wr_acc st (sat_if st (rd_preg st))
  | "APAC" -> fun st -> wr_acc st (sat_if st (rd_acc st + rd_preg st))
  | "SPAC" -> fun st -> wr_acc st (sat_if st (rd_acc st - rd_preg st))
  | "DMOV" -> (
    match op 0 with
    | Instr.Dir r ->
      let rd_a = Mstate.reader layout (Instr.Adr r) in
      fun st ->
        let a = rd_a st in
        Mstate.store st (a + 1) (Mstate.load st a)
    | Instr.Ind (Instr.Reg r, u, _) ->
      let s_r = Mstate.reg_slot r in
      fun st ->
        let a = Mstate.read_slot st s_r in
        Mstate.store st (a + 1) (Mstate.load st a);
        (match u with
        | Instr.No_update -> ()
        | Instr.Post_inc -> Mstate.write_slot st s_r (a + 1)
        | Instr.Post_dec -> Mstate.write_slot st s_r (a - 1))
    | _ -> invalid_arg "tic25: DMOV needs a memory operand")
  | "LARK" -> (
    match i.Instr.operands with
    | [ Instr.Reg r; Instr.Imm k ] ->
      let s = Mstate.reg_slot r in
      fun st -> Mstate.write_slot st s k
    | _ ->
      let w0 = Mstate.writer layout (op 0) in
      let r1 = rd 1 in
      fun st -> w0 st (r1 st))
  | "LARI" ->
    let w0 = Mstate.writer layout (op 0) in
    let r1 = rd 1 and r2 = rd 2 and r3 = rd 3 in
    fun st -> w0 st (r1 st + (r3 st * r2 st))
  | "BANZ" -> (
    match op 0 with
    | Instr.Reg r ->
      let s = Mstate.reg_slot r in
      fun st -> Mstate.write_slot st s (Mstate.read_slot st s - 1)
    | o ->
      let w0 = Mstate.writer layout o and r0 = Mstate.reader layout o in
      fun st -> w0 st (r0 st - 1))
  | "RPTMAC" ->
    let r0 = rd 0 and r1 = rd 1 and r2 = rd 2 in
    fun st ->
      let n = r0 st in
      for _ = 1 to n do
        wr_acc st (sat_if st (rd_acc st + rd_preg st));
        wr_treg st (r1 st);
        wr_preg st (rd_treg st * r2 st);
        (* RPT repeats the following word: each repetition is one instruction
           execution, so its post-modifies land at the repetition boundary *)
        Mstate.apply_updates st
      done
  | "SOVM" -> fun st -> Mstate.set_mode st "ovm" 1
  | "ROVM" -> fun st -> Mstate.set_mode st "ovm" 0
  | opc -> invalid_arg ("tic25: cannot execute " ^ opc)

let machine =
  {
    Machine.name = "tic25";
    description = "TMS320C25-style accumulator DSP with T/P multiplier";
    word_bits = 16;
    grammar;
    emitters;
    store;
    regfile =
      Regfile.make
        [
          { Regfile.cls_name = "acc"; count = 1; role = "accumulator" };
          { Regfile.cls_name = "t"; count = 1; role = "multiplier input" };
          { Regfile.cls_name = "p"; count = 1; role = "product register" };
          { Regfile.cls_name = "ar"; count = 8; role = "address registers" };
        ];
    modes = [ ("ovm", 0) ];
    mode_change;
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
        application = Classify.Fixed_architecture;
      };
  }
