(* Compiled simulation: a one-pass translator from structured assembly to
   OCaml closures, following SimSoC's specialization approach (and the same
   de-interpretation trick used on [Algebra.equivalent]).  Each instruction
   becomes one closure specialized at translation time on its opcode and
   addressing modes (via [Machine.t.semantics] and
   [Mstate.operand_reader]/[Mstate.operand_writer]); the program and every
   [Loop] body become one closure each that calls its steps directly,
   linked in groups of four ([chain]), and a loop's closure is iterated by
   a counted loop.

   Observable behaviour is kept exactly aligned with the interpretive
   engine in [Sim]:

   - post-modify address updates become visible at instruction boundaries.
     Where [Mstate.updates_at_once] finds the walking operand the only
     access to its register (every post-modify of the DSPStone loops), the
     staged access writes the register itself and the step is the bare
     semantics; an instruction that still queues an update (two operands
     on one register, a bare mention of it) is followed by
     [Mstate.apply_updates] ([Mstate.queues_update] decides);
   - mode requirement checks run before the instruction, raising
     [Mode_violation] with the same message; where [Target.Modes], the
     analysis [Opt.Modeopt] places and verifies mode changes with, knows
     the mode's value, the check is hoisted out entirely (elided if
     satisfied, folded to an unconditional raise if violated), and
     otherwise it reads the mode's register-file slot;
   - [Invalid_argument] escaping an instruction's semantics — whether at
     translation time (unknown opcode, missing operand) or at run time
     (out-of-range address) — surfaces as [Exec_error] when the
     corresponding step executes, never earlier.  The conversion handler is
     installed once around the whole program rather than per step:
     execution aborts at the raising step either way, so the observable
     exception is identical and the hot path carries no handler;
   - cycles are counted statically (an instruction costs its [cycles]
     field, a parallel word one cycle, a loop its body per iteration) and
     credited in one addition per run.

   Translation is pure and the resulting plan is domain-safe.  Direct and
   base addresses are resolved against the plan's layout while staging, so
   a plan holds no mutable state: per-run mutable state lives only in the
   [Mstate.t] a run is given, made on that layout — by {!run} with
   [Mstate.create], a state of its own that the outcome returns, or by
   [Sim.simulate] with [Mstate.borrow], on the domain's spare data memory,
   through the same {!exec}. *)

exception Mode_violation of string
exception Exec_error of string

type outcome = { cycles : int; state : Target.Mstate.t }
type step = Target.Mstate.t -> unit

module Smap = Map.Make (String)

type plan = {
  width : int;
  machine : Target.Machine.t;
  layout : Target.Layout.t;
  body : step;
  static_cycles : int;
  var_index : Target.Layout.entry Smap.t;
      (* name -> layout entry, resolved once per plan *)
}

(* ---- staging one instruction -------------------------------------------- *)

let violation_msg (i : Target.Instr.t) m v actual =
  Printf.sprintf "%s requires %s=%d, machine has %s=%d" i.Target.Instr.opcode m
    v m actual

let stage_check know (i : Target.Instr.t) : step option =
  match i.Target.Instr.mode_req with
  | None -> None
  | Some (m, v) -> (
    match Target.Modes.Smap.find_opt m know with
    | Some k when k = v -> None (* statically satisfied: hoisted out *)
    | Some k ->
      (* statically violated: the message is known at translation time *)
      let msg = violation_msg i m v k in
      Some (fun _ -> raise (Mode_violation msg))
    | None ->
      let s = Target.Mstate.mode_slot m in
      Some
        (fun st ->
          let actual = Target.Mstate.read_slot st s in
          if actual <> v then raise (Mode_violation (violation_msg i m v actual))))

(* One instruction's step, staged with the knowledge [know] that holds
   before it; [Target.Modes.after] gives the knowledge after it. *)
let stage_instr (machine : Target.Machine.t) layout know (i : Target.Instr.t)
    : step =
  let check = stage_check know i in
  let action =
    match i.Target.Instr.mode_set with
    | Some (m, v) ->
      let s = Target.Mstate.mode_slot m in
      fun st -> Target.Mstate.write_slot st s v
    | None -> (
      match machine.Target.Machine.semantics layout i with
      | f -> f (* run-time [Invalid_argument] is converted by [run] *)
      | exception Invalid_argument msg -> fun _ -> raise (Exec_error msg)
      | exception e -> fun _ -> raise e)
  in
  match (check, Target.Mstate.queues_update i) with
  | None, false -> action
  | None, true ->
    fun st ->
      action st;
      Target.Mstate.apply_updates st
  | Some c, false ->
    fun st ->
      c st;
      action st
  | Some c, true ->
    fun st ->
      c st;
      action st;
      Target.Mstate.apply_updates st

(* ---- staging item lists into closures ----------------------------------- *)

(* A program or loop body as one closure: its steps linked in groups of
   four, each group calling the next in tail position, so a run or a trip
   is direct calls and no walk over an array. *)
let rec chain : step list -> step = function
  | [] -> fun _ -> ()
  | [ a ] -> a
  | [ a; b ] ->
    fun st ->
      a st;
      b st
  | [ a; b; c ] ->
    fun st ->
      a st;
      b st;
      c st
  | [ a; b; c; d ] ->
    fun st ->
      a st;
      b st;
      c st;
      d st
  | a :: b :: c :: d :: rest ->
    let k = chain rest in
    fun st ->
      a st;
      b st;
      c st;
      d st;
      k st

let check_cycles = 1 lsl 16

(* Stages [items] after the steps [acc] (in reverse), with knowledge [know]
   and [cyc] static cycles so far; returns the steps in reverse, the
   knowledge after the items and the static cycles. *)
let rec stage_items machine layout clobbers know acc cyc = function
  | [] -> (acc, know, cyc)
  | Target.Asm.Op i :: rest ->
    let s = stage_instr machine layout know i in
    stage_items machine layout clobbers
      (Target.Modes.after clobbers know i)
      (s :: acc)
      (cyc + i.Target.Instr.cycles)
      rest
  | Target.Asm.Par is :: rest ->
    (* one instruction word: members execute in slot order, each with its
       own boundary, the bundle costs one cycle *)
    let acc, know =
      List.fold_left
        (fun (acc, know) i ->
          ( stage_instr machine layout know i :: acc,
            Target.Modes.after clobbers know i ))
        (acc, know) is
    in
    stage_items machine layout clobbers know acc (cyc + 1) rest
  | Target.Asm.Loop { count; body; _ } :: rest ->
    if count <= 0 then
      (* never executed: not staged, zero cycles, knowledge unchanged *)
      stage_items machine layout clobbers know acc cyc rest
    else
      let entry = Target.Modes.loop_entry clobbers know body in
      let body_rev, exit_know, body_cyc =
        stage_items machine layout clobbers entry [] 0 body
      in
      let trip = chain (List.rev body_rev) in
      let trips k st =
        for _ = 1 to k do
          trip st
        done
      in
      (* The job's deadline is polled between chunks of trips worth about
         [check_cycles] simulated cycles, nested loops' trips included
         through [body_cyc], so a loop that finishes within one chunk never
         polls and no trip carries a check. *)
      let chunk = max 1 (check_cycles / max 1 body_cyc) in
      let s st =
        let left = ref count in
        while !left > chunk do
          trips chunk st;
          left := !left - chunk;
          Ir.Deadline.check ()
        done;
        trips !left st
      in
      stage_items machine layout clobbers exit_know (s :: acc)
        (cyc + (count * body_cyc))
        rest

let prepare ?(width = 16) machine ~layout (asm : Target.Asm.t) =
  let steps_rev, _, static_cycles =
    stage_items machine layout
      (Target.Modes.clobbers machine)
      (Target.Modes.reset machine)
      [] 0 asm.Target.Asm.items
  in
  (* the first entry of a name wins, as in [Layout.find] *)
  let var_index =
    List.fold_left
      (fun index (e : Target.Layout.entry) ->
        Smap.update e.Target.Layout.name
          (function None -> Some e | first -> first)
          index)
      Smap.empty layout.Target.Layout.entries
  in
  {
    width;
    machine;
    layout;
    body = chain (List.rev steps_rev);
    static_cycles;
    var_index;
  }

let exec plan ~inputs st =
  if st.Target.Mstate.layout != plan.layout then
    invalid_arg "Sim.Compile.exec: a state made on another layout";
  List.iter
    (fun (name, values) ->
      Target.Mstate.blit_entry st (Smap.find name plan.var_index) values)
    inputs;
  (try plan.body st with Invalid_argument msg -> raise (Exec_error msg));
  Target.Mstate.add_cycles st plan.static_cycles;
  Target.Mstate.cycles st

let run plan ~inputs =
  let st =
    Target.Mstate.create ~width:plan.width ~layout:plan.layout
      ~modes:plan.machine.Target.Machine.modes ()
  in
  { cycles = exec plan ~inputs st; state = st }
