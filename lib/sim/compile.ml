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
     [Mode_violation] with the same message; when the mode value is
     statically known the check is hoisted out entirely (elided if
     satisfied, folded to an unconditional raise if violated);
   - [Invalid_argument] escaping an instruction's semantics — whether at
     translation time (unknown opcode, missing operand) or at run time
     (out-of-range address) — surfaces as [Exec_error] when the
     corresponding step executes, never earlier.  The conversion handler is
     installed once around the whole program rather than per step:
     execution aborts at the raising step either way, so the observable
     exception is identical and the hot path carries no handler.  A runtime
     mode check that trips on a mode the state does not carry re-raises its
     raw [Invalid_argument] through [Raw_invalid], because the interpretive
     engine does not wrap that one;
   - cycles are counted statically (an instruction costs its [cycles]
     field, a parallel word one cycle, a loop its body per iteration) and
     credited in one addition per run.

   Translation is pure and the resulting plan is domain-safe.  Direct and
   base addresses are resolved against the plan's layout while staging, so
   a plan holds no mutable state: per-run mutable state lives only in the
   [Mstate.t] that {!run} creates, on that layout. *)

exception Mode_violation of string
exception Exec_error of string

(* Internal: carries an [Invalid_argument] payload that must cross the
   [run]-level conversion handler unconverted (see the header comment). *)
exception Raw_invalid of string

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
  mode_seed : (int * int) list; (* (mode slot, reset value) *)
}

(* ---- static mode knowledge ---------------------------------------------- *)

(* Map from mode name to its statically-known value at a program point.
   Seeded from the machine's reset values; [mode_set] refines it; a
   successful [mode_req] check refines it too (execution only continues if
   the check passed); executing an opcode that the machine's own
   [mode_change] emits (e.g. tic25's SOVM/ROVM run bare, without a
   [mode_set] annotation) invalidates everything, since its semantics may
   write modes directly.  A machine whose [exec] mutates modes under an
   opcode [mode_change] never emits would defeat this probe — the
   differential suite is the backstop for such exotics. *)
let mode_clobbers (machine : Target.Machine.t) =
  List.concat_map
    (fun (mode, reset) ->
      List.filter_map
        (fun v ->
          match machine.Target.Machine.mode_change mode v with
          | i -> Some i.Target.Instr.opcode
          | exception _ -> None)
        [ 0; 1; reset ])
    machine.Target.Machine.modes

let initial_knowledge (machine : Target.Machine.t) =
  List.fold_left
    (fun k (m, v) -> Smap.add m v k)
    Smap.empty machine.Target.Machine.modes

(* Is [i]'s opcode one of [clobbers]?  Asked of every staged instruction,
   so by [String.equal], not the polymorphic [List.mem]. *)
let rec clobbers_mem (i : Target.Instr.t) = function
  | [] -> false
  | c :: cs -> String.equal c i.Target.Instr.opcode || clobbers_mem i cs

(* Abstract transfer of one instruction over the knowledge map. *)
let transfer_instr clobbers know (i : Target.Instr.t) =
  let know =
    match i.Target.Instr.mode_req with
    | Some (m, v) -> Smap.add m v know
    | None -> know
  in
  match i.Target.Instr.mode_set with
  | Some (m, v) -> Smap.add m v know
  | None -> if clobbers_mem i clobbers then Smap.empty else know

(* Meet: keep only bindings both sides agree on. *)
let meet a b =
  Smap.merge
    (fun _ x y ->
      match (x, y) with Some vx, Some vy when vx = vy -> Some vx | _ -> None)
    a b

let rec transfer_item clobbers know = function
  | Target.Asm.Op i -> transfer_instr clobbers know i
  | Target.Asm.Par is -> List.fold_left (transfer_instr clobbers) know is
  | Target.Asm.Loop { count; body; _ } ->
    if count <= 0 then know
    else transfer_items clobbers (loop_entry clobbers know body) body

and transfer_items clobbers know items =
  List.fold_left (transfer_item clobbers) know items

(* Knowledge valid on entry to every iteration: the greatest fixpoint of
   [meet know (transfer body)] — iteration 1 enters with [know], later
   iterations with the body's transfer of whatever held before. *)
and loop_entry clobbers know body =
  let rec go e =
    let e' = meet e (transfer_items clobbers e body) in
    if Smap.equal ( = ) e' e then e else go e'
  in
  go know

(* ---- staging one instruction -------------------------------------------- *)

let violation_msg (i : Target.Instr.t) m v actual =
  Printf.sprintf "%s requires %s=%d, machine has %s=%d" i.Target.Instr.opcode m
    v m actual

let stage_check know (i : Target.Instr.t) : step option =
  match i.Target.Instr.mode_req with
  | None -> None
  | Some (m, v) -> (
    match Smap.find_opt m know with
    | Some k when k = v -> None (* statically satisfied: hoisted out *)
    | Some k ->
      (* statically violated: the message is known at translation time *)
      let msg = violation_msg i m v k in
      Some (fun _ -> raise (Mode_violation msg))
    | None ->
      let rd_mode = Target.Mstate.mode_reader m in
      Some
        (fun st ->
          let actual =
            try rd_mode st with Invalid_argument msg -> raise (Raw_invalid msg)
          in
          if actual <> v then raise (Mode_violation (violation_msg i m v actual))))

(* One instruction's step, staged with the knowledge [know] that holds
   before it; [transfer_instr] gives the knowledge after it. *)
let stage_instr (machine : Target.Machine.t) layout know (i : Target.Instr.t)
    : step =
  let check = stage_check know i in
  let action =
    match i.Target.Instr.mode_set with
    | Some (m, v) ->
      let s = Target.Mstate.mode_slot m in
      fun st -> Target.Mstate.mode_write_slot st s v
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
      (transfer_instr clobbers know i)
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
            transfer_instr clobbers know i ))
        (acc, know) is
    in
    stage_items machine layout clobbers know acc (cyc + 1) rest
  | Target.Asm.Loop { count; body; _ } :: rest ->
    if count <= 0 then
      (* never executed: not staged, zero cycles, knowledge unchanged *)
      stage_items machine layout clobbers know acc cyc rest
    else
      let entry = loop_entry clobbers know body in
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
  let clobbers = mode_clobbers machine in
  let know = initial_knowledge machine in
  let steps_rev, _, static_cycles =
    stage_items machine layout clobbers know [] 0 asm.Target.Asm.items
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
    mode_seed =
      List.map
        (fun (m, v) -> (Target.Mstate.mode_slot m, v))
        machine.Target.Machine.modes;
  }

let run plan ~inputs =
  let st =
    Target.Mstate.create ~width:plan.width ~layout:plan.layout ~modes:[] ()
  in
  List.iter
    (fun (s, v) -> Target.Mstate.mode_write_slot st s v)
    plan.mode_seed;
  List.iter
    (fun (name, values) ->
      Target.Mstate.blit_entry st (Smap.find name plan.var_index) values)
    inputs;
  (try plan.body st with
  | Invalid_argument msg -> raise (Exec_error msg)
  | Raw_invalid msg -> invalid_arg msg);
  Target.Mstate.add_cycles st plan.static_cycles;
  { cycles = Target.Mstate.cycles st; state = st }
