exception Unsupported = Target.Machine.Unsupported

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

(* A store transfer as a move: [store_of t v m] stores register [v] to
   [m]. *)
let store_of (t : Transfer.t) =
  Target.Machine.store_instr ~words:t.words ~cycles:t.cycles t.name

(* An immediate-load transfer [r <- imm]: [load_imm t r ctx k] loads [k]
   into a fresh register of class [r].  Its rule's emitter and the
   machine's [store] both use it. *)
let load_imm (t : Transfer.t) r ctx k =
  let v = Target.Machine.fresh_vreg ctx r in
  Target.Machine.emit ctx
    (Target.Instr.make t.name ~operands:[ Target.Instr.Imm k ]
       ~defs:[ Target.Instr.Vreg v ] ~words:t.words ~cycles:t.cycles);
  v

(* Each register-destination transfer is a rule whose emitter is its
   instruction, and each store a spill chain rule. *)
let pairs_of_transfers transfers =
  List.filter_map
    (fun (t : Transfer.t) ->
      match t.dest with
      | Transfer.Dreg r -> (
        let guard = if has_imm t.expr then Some (imm_guard t.expr) else None in
        let rule =
          Burg.Rule.make ?guard ~name:t.name ~lhs:r ~cost:t.words
            (pattern_of t.expr)
        in
        match t.expr with
        | Transfer.Leaf (Transfer.Imm _) ->
          Some (rule, Target.Machine.imm_emitter (load_imm t r))
        | _ ->
          Some
            (Target.Machine.instr ~words:t.words ~cycles:t.cycles t.name rule))
      | Transfer.Dmem _ -> (
        match is_store t with
        | Some r ->
          (* Store to a fresh scratch word: the spill chain rule. *)
          Some
            ( Burg.Rule.make ~name:("spill_" ^ t.name) ~lhs:"mem"
                ~cost:t.words (Burg.Pattern.Nonterm r),
              Target.Machine.spill_emitter (store_of t) )
        | None -> None))
    transfers

let rules_of_transfers transfers = List.map fst (pairs_of_transfers transfers)

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
  let rules = Target.Machine.mem_rules @ pairs_of_transfers transfers in
  let grammar =
    Burg.Grammar.make ~name ~start:store_reg (List.map fst rules)
  in
  (* [store_reg]'s moves: register allocation spills and reloads through
     a scratch word with the same store and load transfers. *)
  let moves =
    {
      Target.Machine.spill_store = store_of store_transfer;
      spill_load =
        Target.Machine.load_instr ~words:load_transfer.words
          ~cycles:load_transfer.cycles load_transfer.name;
    }
  in
  let store =
    Target.Machine.store_with moves store_reg ~imm:(fun ctx k ->
        match ldi_transfer with
        | Some ldi -> load_imm ldi store_reg ctx k
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
      let wc = Target.Mstate.operand_writer layout i c
      and rn = Target.Mstate.operand_reader layout i n in
      fun st -> wc st (rn st)
    | "DJNZ", [ c ] -> Target.Mstate.operand_adder layout i c (-1)
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
          Target.Mstate.operand_reader layout i (next ())
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
        let w = Target.Mstate.operand_writer layout i (next ()) in
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
          load_ar = Target.Machine.load_ar "LDAR";
        }
    | _ -> None
  in
  {
    Target.Machine.name;
    description;
    word_bits = 16;
    grammar;
    rules;
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
    loop_;
    agu;
    naive_agu = None;
    spills = [ (store_reg, moves) ];
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
