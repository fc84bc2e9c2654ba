(* Local value numbering over emitted instructions, with availability
   carried across statement boundaries.

   Tree covering emits each statement independently, so a value a machine
   register already holds (the TMS320 T register after an LT, the P
   register after a MPY) is recomputed by the next statement.  This pass
   runs at emission time, per maximal straight-line statement run: every
   kept instruction that computes a pure register value is recorded as
   available, and a later instruction that would recompute the same value
   is dropped, its destination virtual register substituted by the
   available one.  Eliminations whose source entry predates the current
   statement are exactly the cross-tree CSE hits DAG covering exists for.

   Soundness is instruction-level and conservative:
   - only instructions with a single virtual-register definition, no mode
     requirement or mode effect, no indirect or physical-register operand,
     and a non-control functional unit are admitted as available;
   - a kept instruction invalidates every entry whose defined or used
     register classes it (re)defines — class-level, so single-register
     classes can never end up with two live values — and every entry
     reading a memory base it writes (an indirect write invalidates all
     memory-reading entries);
   - register allocation runs downstream on the whole flat program, so the
     stretched live range of a reused virtual register is allocated like
     any other. *)

type entry = {
  instr : Target.Instr.t;  (* post-substitution, as emitted *)
  def : Target.Instr.vreg;
  from_prev : bool;  (* recorded before the current statement began *)
}

type t = {
  mutable avail : entry list;  (* newest first *)
  subst : (Target.Instr.vreg, Target.Instr.vreg) Hashtbl.t;
}

type counters = {
  mutable eliminated : int;
  mutable cross_stmt : int;
  mutable words_saved : int;
}

let fresh_counters () = { eliminated = 0; cross_stmt = 0; words_saved = 0 }

let create () = { avail = []; subst = Hashtbl.create 16 }

let copy t = { avail = t.avail; subst = Hashtbl.copy t.subst }

(* A statement boundary: everything currently available was produced by an
   earlier tree. *)
let boundary t =
  t.avail <-
    List.map (fun e -> if e.from_prev then e else { e with from_prev = true })
      t.avail

let rec resolve t v =
  match Hashtbl.find_opt t.subst v with
  | Some v' -> resolve t v'
  | None -> v

let apply_subst t i =
  if Hashtbl.length t.subst = 0 then i
  else
    Target.Instr.map_operands
      (fun op ->
        match op with
        | Target.Instr.Vreg v -> Target.Instr.Vreg (resolve t v)
        | _ -> op)
      i

(* ---- Admission ---------------------------------------------------------- *)

let operand_clean op =
  match op with
  | Target.Instr.Vreg _ | Target.Instr.Imm _ | Target.Instr.Adr _
  | Target.Instr.Dir _ ->
    true
  | Target.Instr.Reg _ | Target.Instr.Ind _ -> false

let admissible (i : Target.Instr.t) =
  (match i.defs with [ Target.Instr.Vreg _ ] -> true | _ -> false)
  && i.mode_req = None && i.mode_set = None && i.funit <> "ctl"
  && List.for_all operand_clean (i.operands @ i.uses)

let def_of (i : Target.Instr.t) =
  match i.defs with
  | [ Target.Instr.Vreg v ] -> v
  | _ -> invalid_arg "Lvn.def_of: not a single-vreg definition"

(* Two admissible instructions compute the same value when everything but
   the defined register agrees (same opcode, inputs, attributes) and the
   defined registers are of the same class. *)
let same_value (a : Target.Instr.t) (b : Target.Instr.t) =
  a.opcode = b.opcode && a.operands = b.operands && a.uses = b.uses
  && a.words = b.words && a.cycles = b.cycles && a.funit = b.funit
  && (def_of a).Target.Instr.vcls = (def_of b).Target.Instr.vcls

(* ---- Invalidation ------------------------------------------------------- *)

let dir_bases ops =
  List.filter_map
    (fun op ->
      match op with
      | Target.Instr.Dir r -> Some r.Ir.Mref.base
      | _ -> None)
    ops

let vreg_classes ops =
  List.concat_map
    (fun op ->
      List.map
        (fun (v : Target.Instr.vreg) -> v.vcls)
        (Target.Instr.vregs_of_operand op))
    ops

(* Register classes whose contents a kept instruction may change: its
   definitions, plus any register walked by a post-update indirect operand
   anywhere in the instruction. *)
let defined_classes (i : Target.Instr.t) =
  let rec post_updated op =
    match op with
    | Target.Instr.Ind (inner, u, _) ->
      (if u <> Target.Instr.No_update then
         List.map
           (fun (v : Target.Instr.vreg) -> v.vcls)
           (Target.Instr.vregs_of_operand inner)
       else [])
      @ post_updated inner
    | _ -> []
  in
  vreg_classes i.defs
  @ List.concat_map post_updated (i.operands @ i.defs @ i.uses)

let entry_classes e =
  (e.def).Target.Instr.vcls :: vreg_classes (e.instr.operands @ e.instr.uses)

let entry_read_bases e = dir_bases (e.instr.operands @ e.instr.uses)

let invalidate t (j : Target.Instr.t) =
  if j.funit = "ctl" then t.avail <- []
  else begin
    let classes = defined_classes j in
    let written = dir_bases j.defs in
    let mem_wild =
      List.exists
        (fun op -> match op with Target.Instr.Ind _ -> true | _ -> false)
        j.defs
    in
    t.avail <-
      List.filter
        (fun e ->
          (not (List.exists (fun c -> List.mem c classes) (entry_classes e)))
          &&
          let reads = entry_read_bases e in
          (not (mem_wild && reads <> []))
          && not (List.exists (fun b -> List.mem b written) reads))
        t.avail
  end

(* ---- The pass ----------------------------------------------------------- *)

let process t (c : counters) instrs =
  let keep j =
    invalidate t j;
    if admissible j then
      t.avail <- { instr = j; def = def_of j; from_prev = false } :: t.avail
  in
  List.filter_map
    (fun i ->
      let i = apply_subst t i in
      if admissible i then
        match List.find_opt (fun e -> same_value e.instr i) t.avail with
        | Some e ->
          c.eliminated <- c.eliminated + 1;
          if e.from_prev then c.cross_stmt <- c.cross_stmt + 1;
          c.words_saved <- c.words_saved + i.Target.Instr.words;
          Hashtbl.replace t.subst (def_of i) e.def;
          None
        | None ->
          keep i;
          Some i
      else begin
        keep i;
        Some i
      end)
    instrs

(* Words this statement would save if processed against the current state,
   without mutating it — the score the boundary-aware variant chooser
   ranks candidates by. *)
let gain t instrs =
  let trial = copy t in
  let c = fresh_counters () in
  ignore (process trial c instrs);
  c.words_saved
