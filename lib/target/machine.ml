(* The machine description record: everything the retargetable pipeline
   needs to know about a target.  A machine couples an iburg-style grammar
   (tree patterns with costs) to emitters that produce instructions into an
   emission context, plus the structural facts the back-end optimizations
   consume: register classes, memory banks, parallel slots, AGU support,
   loop control, mode changes, and executable semantics for the simulator. *)

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
  add_ar : (ctx -> Instr.vreg -> int -> unit) option;
}

(* Conventional (non-AGU) addressing: materialize the induction variable in
   a memory cell and recompute the address every iteration. *)
type naive_support = {
  address_into :
    ctx -> Instr.vreg -> ivar_cell:Ir.Mref.t -> stream:Ir.Mref.t -> unit;
  zero_cell : ctx -> Ir.Mref.t -> unit;
  incr_cell : ctx -> Ir.Mref.t -> unit;
}

type spill_ops = {
  spill_store : Instr.vreg -> Ir.Mref.t -> Instr.t;
  spill_load : Ir.Mref.t -> Instr.vreg -> Instr.t;
}

type t = {
  name : string;
  description : string;
  word_bits : int;
  grammar : Burg.Grammar.t;
  emitters : (string * emitter) list;
  store : ctx -> Ir.Mref.t -> value -> unit;
  regfile : Regfile.t;
  modes : (string * int) list;  (** mode names with reset values *)
  mode_change : string -> int -> Instr.t;
  slots : (string * int) list option;  (** parallel slot capacities *)
  banks : string list;
  default_bank : string;
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
          opcode. *)
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
   rule's, threading the produced values. *)
let rec run_cover m ctx (cover : Burg.Cover.t) =
  let children = List.map (run_cover m ctx) cover.Burg.Cover.children in
  let name = cover.Burg.Cover.rule.Burg.Rule.name in
  match List.assoc_opt name m.emitters with
  | Some e -> e ctx cover.Burg.Cover.node children
  | None -> invalid_arg (m.name ^ ": no emitter for rule " ^ name)

(* Static well-formedness of a machine description. *)
let check m =
  let err fmt = Printf.ksprintf (fun s -> Error s) fmt in
  let rule_names =
    List.map (fun (r : Burg.Rule.t) -> r.Burg.Rule.name)
      m.grammar.Burg.Grammar.rules
  in
  let missing =
    List.filter (fun n -> not (List.mem_assoc n m.emitters)) rule_names
  in
  if missing <> [] then
    err "rules without emitters: %s" (String.concat ", " missing)
  else if not (List.mem m.default_bank m.banks) then
    err "default bank %s not among banks" m.default_bank
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
