exception Unsupported of string

(* ---- transfers -> iburg input ------------------------------------------ *)

let rec pattern_of (e : Transfer.expr) =
  match e with
  | Transfer.Leaf (Transfer.Reg r) -> Burg.Pattern.Nonterm r
  | Transfer.Leaf (Transfer.Mem_direct _) -> Burg.Pattern.Nonterm "mem"
  | Transfer.Leaf (Transfer.Imm _) -> Burg.Pattern.Const_any
  | Transfer.Leaf (Transfer.Const k) -> Burg.Pattern.Const_eq k
  | Transfer.Unop (op, a) -> Burg.Pattern.Unop (op, pattern_of a)
  | Transfer.Binop (op, a, b) ->
    Burg.Pattern.Binop (op, pattern_of a, pattern_of b)

(* Immediates anywhere in the pattern must fit their field widths. *)
let imm_guard (e : Transfer.expr) =
  let rec check e (t : Ir.Tree.t) =
    match (e, t) with
    | Transfer.Leaf (Transfer.Imm (_, w)), Ir.Tree.Const k ->
      k >= 0 && k < 1 lsl w
    | Transfer.Leaf _, _ -> true
    | Transfer.Unop (_, a), Ir.Tree.Unop (_, ta) -> check a ta
    | Transfer.Unop _, _ -> true
    | Transfer.Binop (_, a, b), Ir.Tree.Binop (_, ta, tb) ->
      check a ta && check b tb
    | Transfer.Binop _, _ -> true
  in
  fun t -> check e t

let has_imm e =
  List.exists
    (function Transfer.Imm _ -> true | _ -> false)
    (Transfer.leaves e)

let is_store (t : Transfer.t) =
  match (t.dest, t.expr) with
  | Transfer.Dmem _, Transfer.Leaf (Transfer.Reg r) -> Some r
  | _ -> None

let rules_of_transfers transfers =
  List.filter_map
    (fun (t : Transfer.t) ->
      match t.dest with
      | Transfer.Dreg r ->
        let guard = if has_imm t.expr then Some (imm_guard t.expr) else None in
        Some
          (Burg.Rule.make ?guard ~name:t.name ~lhs:r ~cost:t.words
             (pattern_of t.expr))
      | Transfer.Dmem _ -> (
        match is_store t with
        | Some r ->
          (* Store to a fresh scratch word: the spill chain rule. *)
          Some
            (Burg.Rule.make ~name:("spill_" ^ t.name) ~lhs:"mem" ~cost:t.words
               (Burg.Pattern.Nonterm r))
        | None -> None))
    transfers

(* A mem leaf rule so "mem" is producible from plain references. *)
let mem_ref_rule =
  Burg.Rule.make ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any

(* Constants may come from a pre-initialized pool cell (one data word). *)
let mem_const_rule =
  Burg.Rule.make ~name:"mem_const" ~lhs:"mem" ~cost:1 Burg.Pattern.Const_any

(* ---- Emitters ------------------------------------------------------------ *)

(* Walk the transfer expression and the matched subtree in parallel,
   consuming child values for register/memory leaves and reading constants
   for immediate leaves; returns the consumable operand list in leaf order
   plus the use set. *)
let build_operands (t : Transfer.t) node children =
  let children = ref children in
  let next_child () =
    match !children with
    | c :: rest ->
      children := rest;
      c
    | [] -> assert false
  in
  let operands = ref [] in
  let uses = ref [] in
  let rec go e (n : Ir.Tree.t) =
    match (e, n) with
    | Transfer.Leaf (Transfer.Reg _), _ -> (
      match next_child () with
      | Target.Machine.Vreg v -> uses := Target.Instr.Vreg v :: !uses
      | Target.Machine.Mem _ | Target.Machine.Imm _ -> assert false)
    | Transfer.Leaf (Transfer.Mem_direct _), _ -> (
      match next_child () with
      | Target.Machine.Mem r ->
        operands := Target.Instr.Dir r :: !operands;
        uses := Target.Instr.Dir r :: !uses
      | Target.Machine.Vreg _ | Target.Machine.Imm _ -> assert false)
    | Transfer.Leaf (Transfer.Imm _), Ir.Tree.Const k ->
      operands := Target.Instr.Imm k :: !operands
    | Transfer.Leaf (Transfer.Imm _), _ -> assert false
    | Transfer.Leaf (Transfer.Const _), _ -> ()
    | Transfer.Unop (_, a), Ir.Tree.Unop (_, na) -> go a na
    | Transfer.Unop _, _ -> assert false
    | Transfer.Binop (_, a, b), Ir.Tree.Binop (_, na, nb) ->
      go a na;
      go b nb
    | Transfer.Binop _, _ -> assert false
  in
  go t.expr node;
  (List.rev !operands, List.rev !uses)

let emitter_of (t : Transfer.t) dest_reg : Target.Machine.emitter =
 fun ctx node children ->
  let operands, uses = build_operands t node children in
  let d = Target.Machine.fresh_vreg ctx dest_reg in
  Target.Machine.emit ctx
    (Target.Instr.make t.name ~operands ~defs:[ Target.Instr.Vreg d ] ~uses
       ~words:t.words ~cycles:t.cycles);
  Target.Machine.Vreg d

(* ---- Machine assembly ----------------------------------------------------- *)

let of_transfers ~name ~description ~registers ?counter ?agu_limit transfers =
  if transfers = [] then raise (Unsupported "no transfers");
  if registers = [] then raise (Unsupported "no registers");
  (* Loads, stores, immediates needed for a complete compiler. *)
  let store_transfer =
    match List.find_opt (fun t -> is_store t <> None) transfers with
    | Some t -> t
    | None -> raise (Unsupported "no register-to-memory store transfer")
  in
  let store_reg = Option.get (is_store store_transfer) in
  let load_transfer =
    let is_load (t : Transfer.t) =
      match (t.dest, t.expr) with
      | Transfer.Dreg r, Transfer.Leaf (Transfer.Mem_direct _) -> Some (r, t)
      | _ -> None
    in
    match List.filter_map is_load transfers with
    | (r, t) :: _ when r = store_reg -> t
    | _ -> raise (Unsupported "no memory-to-register load transfer")
  in
  let ldi_transfer =
    List.find_opt
      (fun (t : Transfer.t) ->
        match (t.dest, t.expr) with
        | Transfer.Dreg r, Transfer.Leaf (Transfer.Imm _) -> r = store_reg
        | _ -> false)
      transfers
  in
  let rules = mem_ref_rule :: mem_const_rule :: rules_of_transfers transfers in
  let grammar = Burg.Grammar.make ~name ~start:store_reg rules in
  let emitters =
    ( "mem_ref",
      fun _ctx node _children ->
        match node with
        | Ir.Tree.Ref r -> Target.Machine.Mem r
        | _ -> (assert false : Target.Machine.value) )
    :: ( "mem_const",
         fun ctx node _children ->
           match node with
           | Ir.Tree.Const k -> Target.Machine.Mem (Target.Machine.const_cell ctx k)
           | _ -> (assert false : Target.Machine.value) )
    :: List.filter_map
         (fun (t : Transfer.t) ->
           match t.dest with
           | Transfer.Dreg r -> Some (t.name, emitter_of t r)
           | Transfer.Dmem _ -> (
             match is_store t with
             | Some _r ->
               (* Spill: store the register child to fresh scratch. *)
               Some
                 ( "spill_" ^ t.name,
                   fun ctx _node children ->
                     (match children with
                     | [ Target.Machine.Vreg v ] ->
                       let scratch = Target.Machine.fresh_scratch ctx in
                       Target.Machine.emit ctx
                         (Target.Instr.make t.name
                            ~operands:[ Target.Instr.Dir scratch ]
                            ~defs:[ Target.Instr.Dir scratch ]
                            ~uses:[ Target.Instr.Vreg v ]
                            ~words:t.words ~cycles:t.cycles ~funit:"move");
                       Target.Machine.Mem scratch
                     | _ -> assert false) )
             | None -> None))
         transfers
  in
  let store ctx dst value =
    let store_from_vreg v =
      Target.Machine.emit ctx
        (Target.Instr.make store_transfer.Transfer.name
           ~operands:[ Target.Instr.Dir dst ]
           ~defs:[ Target.Instr.Dir dst ]
           ~uses:[ Target.Instr.Vreg v ]
           ~words:store_transfer.Transfer.words
           ~cycles:store_transfer.Transfer.cycles ~funit:"move")
    in
    match value with
    | Target.Machine.Vreg v -> store_from_vreg v
    | Target.Machine.Mem src ->
      let v = Target.Machine.fresh_vreg ctx store_reg in
      Target.Machine.emit ctx
        (Target.Instr.make load_transfer.Transfer.name
           ~operands:[ Target.Instr.Dir src ]
           ~defs:[ Target.Instr.Vreg v ]
           ~uses:[ Target.Instr.Dir src ]
           ~words:load_transfer.Transfer.words
           ~cycles:load_transfer.Transfer.cycles ~funit:"move");
      store_from_vreg v
    | Target.Machine.Imm k -> (
      match ldi_transfer with
      | Some ldi ->
        let v = Target.Machine.fresh_vreg ctx store_reg in
        Target.Machine.emit ctx
          (Target.Instr.make ldi.Transfer.name
             ~operands:[ Target.Instr.Imm k ]
             ~defs:[ Target.Instr.Vreg v ]
             ~words:ldi.Transfer.words ~cycles:ldi.Transfer.cycles);
        store_from_vreg v
      | None -> raise (Unsupported "no immediate-load transfer"))
  in
  (* Executable semantics: interpret the transfer behind each opcode, plus
     the synthesized control pseudo-instructions. *)
  let by_name = List.map (fun (t : Transfer.t) -> (t.name, t)) transfers in
  (* Staged: the transfer lookup, the expr walk, and the operand-queue
     consumption all happen once per instruction; the returned closure only
     reads/writes machine state.  The queue is drained at stage time in the
     same traversal order the interpreter used (leaves left-to-right, then
     the memory destination), so operand pairing is unchanged. *)
  let semantics layout (i : Target.Instr.t) : Target.Mstate.t -> unit =
    match (i.Target.Instr.opcode, i.Target.Instr.operands) with
    | "LDC", [ Target.Instr.Reg c; Target.Instr.Imm k ]
    | "LDAR", [ Target.Instr.Reg c; Target.Instr.Imm k ] ->
      let sc = Target.Mstate.reg_slot c in
      fun st -> Target.Mstate.write_slot st sc k
    | "LDC", [ c; n ] | "LDAR", [ c; n ] ->
      let wc = Target.Mstate.writer layout c
      and rn = Target.Mstate.reader layout n in
      fun st -> wc st (rn st)
    | "DJNZ", [ Target.Instr.Reg c ] ->
      let sc = Target.Mstate.reg_slot c in
      fun st ->
        Target.Mstate.write_slot st sc (Target.Mstate.read_slot st sc - 1)
    | "DJNZ", [ c ] ->
      let wc = Target.Mstate.writer layout c
      and rc = Target.Mstate.reader layout c in
      fun st -> wc st (rc st - 1)
    | _ -> (
      let t =
        match List.assoc_opt i.Target.Instr.opcode by_name with
        | Some t -> t
        | None ->
          invalid_arg
            (Printf.sprintf "%s: cannot execute %s" name i.Target.Instr.opcode)
      in
      let queue = ref i.Target.Instr.operands in
      let next () =
        match !queue with
        | op :: rest ->
          queue := rest;
          op
        | [] -> invalid_arg (i.Target.Instr.opcode ^ ": missing operand")
      in
      let rec stage (e : Transfer.expr) : Target.Mstate.t -> int =
        match e with
        | Transfer.Leaf (Transfer.Reg r) ->
          Target.Mstate.reg_reader { Target.Instr.cls = r; idx = 0 }
        | Transfer.Leaf (Transfer.Mem_direct _)
        | Transfer.Leaf (Transfer.Imm _) ->
          Target.Mstate.reader layout (next ())
        | Transfer.Leaf (Transfer.Const k) -> fun _ -> k
        | Transfer.Unop (op, a) -> (
          let fa = stage a in
          (* dispatch on the operator once at staging time, not per step *)
          match op with
          | Ir.Op.Neg -> fun st -> -fa st
          | Ir.Op.Not -> fun st -> lnot (fa st)
          | Ir.Op.Sat -> fun st -> Ir.Op.eval_unop Ir.Op.Sat ~width:16 (fa st))
        | Transfer.Binop (op, a, b) -> (
          let fa = stage a in
          let fb = stage b in
          match op with
          | Ir.Op.Add ->
            fun st ->
              let va = fa st in
              va + fb st
          | Ir.Op.Sub ->
            fun st ->
              let va = fa st in
              va - fb st
          | Ir.Op.Mul ->
            fun st ->
              let va = fa st in
              va * fb st
          | Ir.Op.And ->
            fun st ->
              let va = fa st in
              va land fb st
          | Ir.Op.Or ->
            fun st ->
              let va = fa st in
              va lor fb st
          | Ir.Op.Xor ->
            fun st ->
              let va = fa st in
              va lxor fb st
          | Ir.Op.Shl | Ir.Op.Shr ->
            fun st ->
              let va = fa st in
              let vb = fb st in
              Ir.Op.eval_binop op va vb)
      in
      let f = stage t.expr in
      match t.dest with
      | Transfer.Dreg r ->
        let wr = Target.Mstate.reg_writer { Target.Instr.cls = r; idx = 0 } in
        fun st -> wr st (f st)
      | Transfer.Dmem _ ->
        let w = Target.Mstate.writer layout (next ()) in
        fun st -> w st (f st))
  in
  let counter_cls, counter_count =
    match counter with
    | Some (cls, count) -> (cls, count)
    | None -> (List.hd registers, 1)
  in
  let loop_ =
    match counter with
    | None ->
      {
        Target.Machine.counter_cls;
        loop_pre =
          (fun _ctx ~count:_ ->
            raise (Unsupported (name ^ ": no loop control declared")));
        loop_close = (fun _ctx _c -> ());
      }
    | Some (cls, _) ->
      {
        Target.Machine.counter_cls = cls;
        loop_pre =
          (fun ctx ~count ->
            let c = Target.Machine.fresh_vreg ctx cls in
            Target.Machine.emit ctx
              (Target.Instr.make "LDC"
                 ~operands:[ Target.Instr.Vreg c; Target.Instr.Imm count ]
                 ~defs:[ Target.Instr.Vreg c ]
                 ~funit:"ctl");
            c);
        loop_close =
          (fun ctx c ->
            Target.Machine.emit ctx
              (Target.Instr.make "DJNZ"
                 ~operands:[ Target.Instr.Vreg c ]
                 ~defs:[ Target.Instr.Vreg c ]
                 ~uses:[ Target.Instr.Vreg c ]
                 ~words:2 ~cycles:2 ~funit:"ctl"));
      }
  in
  let agu =
    match (counter, agu_limit) with
    | Some (cls, _), Some limit ->
      Some
        {
          Target.Machine.ar_cls = cls;
          ar_limit = limit;
          load_ar =
            (fun ctx v r ->
              Target.Machine.emit ctx
                (Target.Instr.make "LDAR"
                   ~operands:[ Target.Instr.Vreg v; Target.Instr.Adr r ]
                   ~defs:[ Target.Instr.Vreg v ]
                   ~funit:"ctl"));
          add_ar = None;
        }
    | _ -> None
  in
  (* Register allocation can relieve pressure on [store_reg] by round-tripping
     through a scratch word with the same store/load transfers. *)
  let spills =
    [
      ( store_reg,
        {
          Target.Machine.spill_store =
            (fun v m ->
              Target.Instr.make store_transfer.Transfer.name
                ~operands:[ Target.Instr.Dir m ]
                ~defs:[ Target.Instr.Dir m ]
                ~uses:[ Target.Instr.Vreg v ]
                ~words:store_transfer.Transfer.words
                ~cycles:store_transfer.Transfer.cycles ~funit:"move");
          spill_load =
            (fun m v ->
              Target.Instr.make load_transfer.Transfer.name
                ~operands:[ Target.Instr.Dir m ]
                ~defs:[ Target.Instr.Vreg v ]
                ~uses:[ Target.Instr.Dir m ]
                ~words:load_transfer.Transfer.words
                ~cycles:load_transfer.Transfer.cycles ~funit:"move");
        } );
    ]
  in
  {
    Target.Machine.name;
    description;
    word_bits = 16;
    grammar;
    emitters;
    store;
    regfile =
      Target.Regfile.make
        (List.map
           (fun r ->
             { Target.Regfile.cls_name = r; count = 1; role = "datapath register" })
           registers
        @
        if counter = None then []
        else
          [
            {
              Target.Regfile.cls_name = counter_cls;
              count = counter_count;
              role = "counter / address registers";
            };
          ]);
    modes = [];
    mode_change =
      (fun m v -> invalid_arg (Printf.sprintf "%s: no mode %s=%d" name m v));
    slots = None;
    banks = [ "data" ];
    default_bank = "data";
    loop_;
    agu;
    naive_agu = None;
    spills;
    semantics;
    classification =
      {
        Target.Classify.availability = Target.Classify.Core;
        domain = Target.Classify.Dsp;
        application = Target.Classify.Asip;
      };
  }

let machine (net : Rtl.Netlist.t) =
  let transfers = Extract.run net in
  let registers =
    List.filter_map
      (fun (c : Rtl.Comp.t) ->
        match c.kind with Rtl.Comp.Register -> Some c.name | _ -> None)
      (Rtl.Netlist.storages net)
  in
  if registers = [] then raise (Unsupported "netlist has no registers");
  of_transfers ~name:net.Rtl.Netlist.name
    ~description:
      (Printf.sprintf "generated from RT netlist (%d transfers, %d-bit words)"
         (List.length transfers)
         (Rtl.Netlist.word_width net))
    ~registers transfers
