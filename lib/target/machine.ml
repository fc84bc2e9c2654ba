(* The machine description record: everything the retargetable pipeline
   needs to know about a target.  A machine's selection rules are iburg
   rules (tree patterns with costs), each paired with the emitter that
   produces its instructions into an emission context, as an iburg rule
   carries its action; most are [instr], the one emitter that reads an
   instruction off its rule's pattern.  Beside them sit the structural facts
   the back-end optimizations consume: register classes, memory banks,
   parallel slots, AGU support, loop control, mode changes, and executable
   semantics for the simulator. *)

(* A description that cannot compile a construct it was asked to emit (a
   generated machine without loop control, or without an immediate load)
   raises this during emission; [Pipeline.compile] reports it as an
   error. *)
exception Unsupported of string

type value =
  | Mem of Ir.Mref.t  (** value lives in a memory cell *)
  | Vreg of Instr.vreg  (** value lives in a virtual register *)
  | Imm of int  (** compile-time constant *)

(* Emission context: an ordered instruction buffer plus the compiler-owned
   memory cells (spill scratch and the constant pool). *)
type ctx = {
  mutable buffer : Instr.t list;  (* reversed *)
  mutable next_vreg : int;
  mutable next_scratch : int;
  mutable scratch : (string * int) list;  (* reversed *)
  mutable consts : (string * int) list;  (* reversed; name, value *)
}

type emitter = ctx -> Ir.Tree.t -> value list -> value

type loop_support = {
  counter_cls : string;
  loop_pre : ctx -> count:int -> Instr.vreg;
  loop_close : ctx -> Instr.vreg -> unit;
}

type agu_support = {
  ar_cls : string;
  ar_limit : int;
  load_ar : ctx -> Instr.vreg -> Ir.Mref.t -> unit;
}

(* Conventional (non-AGU) addressing: materialize the induction variable in
   a memory cell and recompute the address every iteration. *)
type naive_support = {
  address_into :
    ctx -> Instr.vreg -> ivar_cell:Ir.Mref.t -> stream:Ir.Mref.t -> unit;
  incr_cell : ctx -> Ir.Mref.t -> unit;
}

(* A register class's moves to and from a memory cell.  A description
   spells them once, in its [spills]: register allocation spills and
   reloads with them, and emission loads, stores and parks values with the
   same two instructions (see [emit_load], [emit_store], [store_with] and
   [spill_emitter]). *)
type spill_ops = {
  spill_store : Instr.vreg -> Ir.Mref.t -> Instr.t;
  spill_load : Ir.Mref.t -> Instr.vreg -> Instr.t;
}

type t = {
  name : string;
  description : string;
  word_bits : int;
  grammar : Burg.Grammar.t;
      (** [Burg.Grammar.make] of [rules]' rules, in the same order: the
          labelling engines return these rule values in their covers *)
  rules : (Burg.Rule.t * emitter) list;
      (** the selection rules, each with the emitter [run_cover] runs where
          a cover uses it *)
  store : ctx -> Ir.Mref.t -> value -> unit;
  regfile : Regfile.t;
  modes : (string * int) list;  (** mode names with reset values *)
  mode_change : string -> int -> Instr.t;
  slots : (string * int) list option;  (** parallel slot capacities *)
  banks : string list;  (** unassigned variables go to the first *)
  loop_ : loop_support;
  agu : agu_support option;
  naive_agu : naive_support option;
  spills : (string * spill_ops) list;
  semantics : Layout.t -> Instr.t -> Mstate.t -> unit;
      (** staged executable semantics: [semantics layout i] does the opcode
          dispatch and operand resolution once, direct and base addresses
          included (resolved against [layout]), and the returned closure
          runs many times on states created on [layout].  The closure holds
          no mutable state.  The interpretive simulator applies it
          immediately ({!exec}); the compiled simulator ([Sim.Compile])
          keeps the closure, so both engines share one definition of every
          opcode.  It stages operands with the helpers below (or
          [Mstate.operand_reader]/[operand_writer]), reaches memory only
          through operands, and reads no address register that no operand
          names: [Mstate.updates_at_once] relies on all three. *)
  classification : Classify.t;
}

(* The unstaged view: stage and run in one go.  This is what the
   interpretive engine and hand-written tests call per executed
   instruction.  The machines' [semantics] take two arguments and return
   the staged closure; applying all three at once through the field would
   build a partial application on every instruction. *)
let exec m st i =
  let run = m.semantics st.Mstate.layout i in
  run st

let create_ctx () =
  { buffer = []; next_vreg = 0; next_scratch = 0; scratch = []; consts = [] }

let fresh_vreg ctx vcls =
  let v = { Instr.vcls; vid = ctx.next_vreg } in
  ctx.next_vreg <- ctx.next_vreg + 1;
  v

let emit ctx i = ctx.buffer <- i :: ctx.buffer

let drain ctx =
  let is = List.rev ctx.buffer in
  ctx.buffer <- [];
  is

(* Compiler-owned memory cells use a "$" prefix so they cannot collide with
   program variables (the IR validates identifiers) and so the peephole
   dead-store elimination can recognize them. *)
let fresh_scratch ctx =
  let name = "$s" ^ string_of_int ctx.next_scratch in
  ctx.next_scratch <- ctx.next_scratch + 1;
  ctx.scratch <- (name, 1) :: ctx.scratch;
  Ir.Mref.scalar name

let scratch_decls ctx = List.rev ctx.scratch

let const_cell ctx k =
  match List.find_opt (fun (_, v) -> v = k) ctx.consts with
  | Some (name, _) -> Ir.Mref.scalar name
  | None ->
    let name = Printf.sprintf "$k%d" (List.length ctx.consts) in
    ctx.consts <- (name, k) :: ctx.consts;
    Ir.Mref.scalar name

let const_cells ctx = List.rev ctx.consts

(* Execute a tree cover bottom-up: run each child's emitter, then this
   rule's, threading the produced values.  A cover holds the grammar's own
   rule values, so the rule is found by physical equality. *)
let rec run_cover m ctx (cover : Burg.Cover.t) =
  let children = List.map (run_cover m ctx) cover.Burg.Cover.children in
  List.assq cover.Burg.Cover.rule m.rules ctx cover.Burg.Cover.node children

(* ---- what every description shares ------------------------------------ *)

(* Memory leaves, the first two rules of every grammar: a reference is a
   memory operand as it stands, and a constant can come from a constant
   pool cell (one data word). *)
let mem_rules : (Burg.Rule.t * emitter) list =
  [
    ( Burg.Rule.make ~name:"mem_ref" ~lhs:"mem" ~cost:0 Burg.Pattern.Ref_any,
      fun _ctx node _children ->
        match node with
        | Ir.Tree.Ref r -> Mem r
        | _ -> invalid_arg "Machine: mem_ref on a non-reference" );
    ( Burg.Rule.make ~name:"mem_const" ~lhs:"mem" ~cost:1
        Burg.Pattern.Const_any,
      fun ctx node _children ->
        match node with
        | Ir.Tree.Const k -> Mem (const_cell ctx k)
        | _ -> invalid_arg "Machine: mem_const on a non-constant" );
  ]

(* The two instruction shapes of a move; [words] and [cycles] default as in
   [Instr.make]. *)
let load_instr ?words ?cycles opcode m v =
  Instr.make opcode ~operands:[ Instr.Dir m ] ~defs:[ Instr.Vreg v ]
    ~uses:[ Instr.Dir m ] ?words ?cycles ~funit:"move"

let store_instr ?words ?cycles opcode v m =
  Instr.make opcode ~operands:[ Instr.Dir m ] ~defs:[ Instr.Dir m ]
    ~uses:[ Instr.Vreg v ] ?words ?cycles ~funit:"move"

let moves ~load ~store =
  { spill_store = store_instr store; spill_load = load_instr load }

(* Load [m] into a fresh register of class [cls] with [ops]' load. *)
let emit_load ctx ops cls m =
  let v = fresh_vreg ctx cls in
  emit ctx (ops.spill_load m v);
  v

let emit_store ctx ops dst v = emit ctx (ops.spill_store v dst)

(* The emitter of a load rule [cls <- mem]: [emit_load] with [ops]. *)
let load_emitter ops cls : emitter =
 fun ctx _node children ->
  match children with
  | [ Mem m ] -> Vreg (emit_load ctx ops cls m)
  | _ -> invalid_arg "Machine: load of a non-memory value"

(* The emitter of an immediate-load rule [cls <- k]: the description's own
   immediate load [imm], which its [store] uses too. *)
let imm_emitter imm : emitter =
 fun ctx node _children ->
  match node with
  | Ir.Tree.Const k -> Vreg (imm ctx k)
  | _ -> invalid_arg "Machine: immediate load of a non-constant"

(* The emitter of a spill chain rule [mem <- reg]: park the register in a
   fresh scratch cell with [store]. *)
let spill_emitter store : emitter =
 fun ctx _node children ->
  match children with
  | [ Vreg v ] ->
    let s = fresh_scratch ctx in
    emit ctx (store v s);
    Mem s
  | _ -> invalid_arg "Machine: spill of a non-register"

(* ---- the pattern-driven emitter ---------------------------------------- *)

(* A leaf of a rule's pattern as [instr] reads it: a register child, a
   memory child (the nonterminal [mem]), or a [Const_any] at a path of
   child positions from the pattern's root (0: the operand of a unary or
   the left of a binary node, 1: the right).  A [Const_eq] leaf adds
   nothing. *)
type leaf = Reg_child | Mem_child | Const_at of int list

let misfit (rule : Burg.Rule.t) =
  invalid_arg
    ("Machine: node and children that do not fit rule " ^ rule.Burg.Rule.name)

(* The leaves of [rule]'s pattern, left to right. *)
let leaves (rule : Burg.Rule.t) =
  let rec go p path acc =
    match p with
    | Burg.Pattern.Nonterm "mem" -> Mem_child :: acc
    | Burg.Pattern.Nonterm _ -> Reg_child :: acc
    | Burg.Pattern.Const_any -> Const_at (List.rev path) :: acc
    | Burg.Pattern.Const_eq _ -> acc
    | Burg.Pattern.Ref_any ->
      invalid_arg ("Machine: a reference leaf in rule " ^ rule.Burg.Rule.name)
    | Burg.Pattern.Unop (_, a) -> go a (0 :: path) acc
    | Burg.Pattern.Binop (_, a, b) -> go a (0 :: path) (go b (1 :: path) acc)
  in
  go rule.Burg.Rule.pattern [] []

let rec const_at rule path (node : Ir.Tree.t) =
  match (path, node) with
  | [], Ir.Tree.Const k -> k
  | 0 :: path, (Ir.Tree.Unop (_, n) | Ir.Tree.Binop (_, n, _))
  | 1 :: path, Ir.Tree.Binop (_, _, n) ->
    const_at rule path n
  | _ -> misfit rule

(* The instruction's operands: a [Dir] per memory child and an [Imm] per
   constant, in leaf order. *)
let rec operands_of rule leaves node children =
  match (leaves, children) with
  | [], [] -> []
  | Reg_child :: leaves, Vreg _ :: children ->
    operands_of rule leaves node children
  | Mem_child :: leaves, Mem r :: children ->
    Instr.Dir r :: operands_of rule leaves node children
  | Const_at path :: leaves, children ->
    Instr.Imm (const_at rule path node) :: operands_of rule leaves node children
  | _ -> misfit rule

(* Its uses: every child, in leaf order. *)
let rec uses_of rule leaves children =
  match (leaves, children) with
  | [], [] -> []
  | Reg_child :: leaves, Vreg v :: children ->
    Instr.Vreg v :: uses_of rule leaves children
  | Mem_child :: leaves, Mem r :: children ->
    Instr.Dir r :: uses_of rule leaves children
  | Const_at _ :: leaves, children -> uses_of rule leaves children
  | _ -> misfit rule

(* [rule] with the emitter most rules share: one instruction [opcode] that
   defines a fresh register of the rule's class.  Its operands and uses
   come from the pattern's leaves, left to right: a register child is a
   use, a memory child a [Dir] operand and a use, a [Const_any] an [Imm]
   operand holding the matched constant; a [Const_eq] adds nothing.  The
   other attributes default as in [Instr.make].  A node or children that
   do not fit the pattern raise [Invalid_argument] naming the rule. *)
let instr ?mode_req ?words ?cycles ?funit opcode (rule : Burg.Rule.t) :
    Burg.Rule.t * emitter =
  let leaves = leaves rule in
  ( rule,
    fun ctx node children ->
      let operands = operands_of rule leaves node children in
      let uses = uses_of rule leaves children in
      let d = fresh_vreg ctx rule.Burg.Rule.lhs in
      emit ctx
        (Instr.make opcode ~operands ~defs:[ Instr.Vreg d ] ~uses ?words
           ?cycles ?funit ?mode_req);
      Vreg d )

let rec repeat_from ctx mode_req opcode cls v k =
  if k <= 0 then Vreg v
  else begin
    let d = fresh_vreg ctx cls in
    emit ctx
      (Instr.make opcode ~defs:[ Instr.Vreg d ] ~uses:[ Instr.Vreg v ]
         ?mode_req);
    repeat_from ctx mode_req opcode cls d (k - 1)
  end

(* [rule], a register child and a [Const_any] [k], with [k] copies of the
   one-register instruction [opcode], each defining a fresh register of the
   rule's class from the last: a shift by [k] on a machine that shifts one
   bit per instruction.  [k = 0] is the child's register. *)
let repeat ?mode_req opcode (rule : Burg.Rule.t) : Burg.Rule.t * emitter =
  match leaves rule with
  | [ Reg_child; Const_at path ] ->
    ( rule,
      fun ctx node children ->
        match children with
        | [ Vreg v ] ->
          repeat_from ctx mode_req opcode rule.Burg.Rule.lhs v
            (const_at rule path node)
        | _ -> misfit rule )
  | _ ->
    invalid_arg
      ("Machine.repeat: rule " ^ rule.Burg.Rule.name
     ^ " is not a register and a constant")

(* A [store] built on one class's moves: a register is stored as it is, a
   memory value goes through a fresh register of class [cls], and [imm]
   loads an immediate into a fresh register. *)
let store_with ops cls ~imm ctx dst value =
  let v =
    match value with
    | Vreg v -> v
    | Mem src -> emit_load ctx ops cls src
    | Imm k -> imm ctx k
  in
  emit_store ctx ops dst v

(* AGU set-up: [v] <- the address of stream [r]'s first element. *)
let load_ar opcode ctx v r =
  emit ctx
    (Instr.make opcode
       ~operands:[ Instr.Vreg v; Instr.Adr r ]
       ~defs:[ Instr.Vreg v ] ~funit:"ctl")

(* ---- staging helpers for [semantics] ----------------------------------- *)

(* Readers of an instruction's [n]th operand and [n]th use, the writer of
   its [n]th operand and of its first definition, staged against [layout]
   through [Mstate.operand_reader]/[operand_writer], so a walking operand
   post-modifies at once where [Mstate.updates_at_once] allows; [name] is
   the machine's, for the error.  A description applies them fully inside
   the opcode arm that needs them: a local helper or a partial application
   allocates a closure on every staging, and the interpretive engine
   stages every instruction it executes. *)
let rd layout (i : Instr.t) n =
  Mstate.operand_reader layout i (List.nth i.operands n)

let wr layout (i : Instr.t) n =
  Mstate.operand_writer layout i (List.nth i.operands n)

let use layout (i : Instr.t) n =
  Mstate.operand_reader layout i (List.nth i.uses n)

let def name layout (i : Instr.t) =
  match i.defs with
  | d :: _ -> Mstate.operand_writer layout i d
  | [] -> invalid_arg (name ^ ": " ^ i.opcode ^ " without destination")

(* [d <- f a] and [d <- f a b] over the first definition and the first
   uses.  The all-register shapes, the common case after allocation,
   flatten to direct slot accesses with no operand-closure chain. *)
let unary name layout (i : Instr.t) f =
  match (i.defs, i.uses) with
  | Instr.Reg d :: _, Instr.Reg a :: _ ->
    let sd = Mstate.reg_slot d and sa = Mstate.reg_slot a in
    fun st -> Mstate.write_slot st sd (f (Mstate.read_slot st sa))
  | _ ->
    let w = def name layout i and a = use layout i 0 in
    fun st -> w st (f (a st))

let binary name layout (i : Instr.t) f =
  match (i.defs, i.uses) with
  | Instr.Reg d :: _, Instr.Reg a :: Instr.Reg b :: _ ->
    let sd = Mstate.reg_slot d
    and sa = Mstate.reg_slot a
    and sb = Mstate.reg_slot b in
    fun st ->
      Mstate.write_slot st sd
        (f (Mstate.read_slot st sa) (Mstate.read_slot st sb))
  | _ ->
    let w = def name layout i and a = use layout i 0 and b = use layout i 1 in
    fun st -> w st (f (a st) (b st))

(* [d <- f a k] over the first use and the first operand, with a register
   destination and source and an immediate [k] flattened likewise. *)
let use_op name layout (i : Instr.t) f =
  match (i.defs, i.uses, i.operands) with
  | Instr.Reg d :: _, Instr.Reg a :: _, Instr.Imm k :: _ ->
    let sd = Mstate.reg_slot d and sa = Mstate.reg_slot a in
    fun st -> Mstate.write_slot st sd (f (Mstate.read_slot st sa) k)
  | _ ->
    let w = def name layout i and a = use layout i 0 and k = rd layout i 0 in
    fun st -> w st (f (a st) (k st))

(* ---- conventional addressing ------------------------------------------- *)

(* [v] <- the address of [stream]'s element at the induction variable held
   in [ivar_cell]: one instruction under the description's [opcode], whose
   operands are [v], the stream's base, the cell and the stride. *)
let address_into opcode ctx v ~ivar_cell ~stream =
  let step =
    match stream.Ir.Mref.index with
    | Ir.Mref.Induct { step; _ } -> step
    | Ir.Mref.Direct | Ir.Mref.Elem _ -> 1
  in
  emit ctx
    (Instr.make opcode
       ~operands:
         [ Instr.Vreg v; Instr.Adr stream; Instr.Dir ivar_cell; Instr.Imm step ]
       ~defs:[ Instr.Vreg v ]
       ~uses:[ Instr.Dir ivar_cell ]
       ~words:2 ~cycles:2 ~funit:"ctl")

(* That instruction's semantics on every description: [v <- base + stride
   * ivar]. *)
let address_into_semantics layout (i : Instr.t) =
  let w0 = wr layout i 0 in
  let r1 = rd layout i 1 and r2 = rd layout i 2 and r3 = rd layout i 3 in
  fun st -> w0 st (r1 st + (r3 st * r2 st))

(* Static well-formedness of a machine description. *)
let check m =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  if m.banks = [] then err "no memory bank"
  else if not (Regfile.mem m.regfile m.loop_.counter_cls) then
    err "loop counter class %s not in register file" m.loop_.counter_cls
  else
    let bad_agu =
      match m.agu with
      | Some a when not (Regfile.mem m.regfile a.ar_cls) -> Some a.ar_cls
      | _ -> None
    in
    match bad_agu with
    | Some cls -> err "AGU register class %s not in register file" cls
    | None -> (
      match
        List.find_opt
          (fun (cls, _) -> not (Regfile.mem m.regfile cls))
          m.spills
      with
      | Some (cls, _) -> err "spill class %s not in register file" cls
      | None -> (
        match m.slots with
        | Some [] -> err "empty slot table"
        | _ -> Ok ()))
