(* Compiled simulation: a one-pass translator from structured assembly to
   OCaml closures, following SimSoC's specialization approach (and the same
   de-interpretation trick used on [Algebra.equivalent]).  Each instruction
   becomes one closure specialized at translation time on its opcode and
   addressing modes (via [Machine.t.semantics] and [Mstate.reader]/
   [Mstate.writer]); straight-line regions are fused into flat step arrays
   ("superblocks") iterated with a counted loop; [Loop] bodies are compiled
   once and iterated by a single closure.

   Observable behaviour is kept exactly aligned with the interpretive
   engine in [Sim]:

   - post-modify address updates become visible at instruction boundaries
     ([Mstate.apply_updates] after every instruction that can queue one —
     the call is elided when no operand, def, or use can);
   - mode requirement checks run before the instruction, raising
     [Mode_violation] with the same message; when the mode value is
     statically known the check is hoisted out entirely (elided if
     satisfied, folded to an unconditional raise if violated);
   - [Invalid_argument] escaping an instruction's semantics — whether at
     translation time (unknown opcode, missing operand) or at run time
     (out-of-range address) — surfaces as [Exec_error] when the
     corresponding step executes, never earlier.  The conversion handler is
     installed once around the whole step loop rather than per step:
     execution aborts at the raising step either way, so the observable
     exception is identical and the hot path carries no handler.  A runtime
     mode check that trips on a mode the state does not carry re-raises its
     raw [Invalid_argument] through [Raw_invalid], because the interpretive
     engine does not wrap that one;
   - cycles are counted statically (an instruction costs its [cycles]
     field, a parallel word one cycle, a loop its body per iteration) and
     credited in one addition per run.

   Translation is pure and the resulting plan is domain-safe: per-run
   mutable state lives in the [Mstate.t] created by {!run}, and the only
   shared mutation is the benign direct-address memo inside staged
   operand closures (a single store of an immutable pair). *)

exception Mode_violation of string
exception Exec_error of string

(* Internal: carries an [Invalid_argument] payload that must cross the
   [run]-level conversion handler unconverted (see the header comment). *)
exception Raw_invalid of string

type outcome = { cycles : int; state : Target.Mstate.t }
type step = Target.Mstate.t -> unit

type plan = {
  width : int;
  machine : Target.Machine.t;
  layout : Target.Layout.t;
  steps : step array;
  static_cycles : int;
  var_index : (string, Target.Layout.entry) Hashtbl.t;
      (* name -> layout entry, resolved once per plan; read-only after
         [prepare], so sharing across domains is safe *)
  mode_seed : (int * int) list; (* (mode slot, reset value) *)
  mutable input_memo :
    ((string * int array) list * (Target.Layout.entry * int array) list) option;
      (* last input list (by physical identity) with its entries resolved —
         repeated runs over one image skip the name lookups.  Race-benign
         across domains: a single store of an immutable pair, like the
         direct-address memo in [Mstate]. *)
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
module Smap = Map.Make (String)

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

(* Abstract transfer of one instruction over the knowledge map. *)
let transfer_instr clobbers know (i : Target.Instr.t) =
  let know =
    match i.Target.Instr.mode_req with
    | Some (m, v) -> Smap.add m v know
    | None -> know
  in
  match i.Target.Instr.mode_set with
  | Some (m, v) -> Smap.add m v know
  | None -> if List.mem i.Target.Instr.opcode clobbers then Smap.empty else know

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

(* Can executing [i] queue a post-modify update?  Readers and writers
   enqueue only for [Ind] operands with an update mode, and the semantics
   reach operands through [operands], [defs], and [uses]. *)
let rec operand_has_update (o : Target.Instr.operand) =
  match o with
  | Target.Instr.Ind (inner, u, _) ->
    u <> Target.Instr.No_update || operand_has_update inner
  | _ -> false

let has_update (i : Target.Instr.t) =
  List.exists operand_has_update i.Target.Instr.operands
  || List.exists operand_has_update i.Target.Instr.defs
  || List.exists operand_has_update i.Target.Instr.uses

let stage_instr (machine : Target.Machine.t) clobbers know (i : Target.Instr.t)
    : step * int Smap.t =
  let know_checked =
    match i.Target.Instr.mode_req with
    | Some (m, v) -> Smap.add m v know
    | None -> know
  in
  let check = stage_check know i in
  let action, know' =
    match i.Target.Instr.mode_set with
    | Some (m, v) ->
      let s = Target.Mstate.mode_slot m in
      ((fun st -> Target.Mstate.mode_write_slot st s v), Smap.add m v know_checked)
    | None ->
      let know' =
        if List.mem i.Target.Instr.opcode clobbers then Smap.empty
        else know_checked
      in
      let action =
        match machine.Target.Machine.semantics i with
        | f -> f (* run-time [Invalid_argument] is converted by [run] *)
        | exception Invalid_argument msg -> fun _ -> raise (Exec_error msg)
        | exception e -> fun _ -> raise e
      in
      (action, know')
  in
  let step =
    match (check, has_update i) with
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
  in
  (step, know')

(* ---- staging item lists into superblocks -------------------------------- *)

let check_cycles = 1 lsl 16

(* Returns (steps in reverse, knowledge after, static cycles). *)
let rec stage_items machine clobbers know items =
  List.fold_left
    (fun (acc, know, cyc) item ->
      match item with
      | Target.Asm.Op i ->
        let s, know = stage_instr machine clobbers know i in
        (s :: acc, know, cyc + i.Target.Instr.cycles)
      | Target.Asm.Par is ->
        (* one instruction word: members execute in slot order, each with
           its own boundary, the bundle costs one cycle *)
        let ss, know =
          List.fold_left
            (fun (ss, know) i ->
              let s, know = stage_instr machine clobbers know i in
              (s :: ss, know))
            ([], know) is
        in
        (List.rev_append (List.rev ss) acc, know, cyc + 1)
      | Target.Asm.Loop { count; body; _ } ->
        if count <= 0 then (acc, know, cyc)
          (* never executed: not staged, zero cycles, knowledge unchanged *)
        else
          let entry = loop_entry clobbers know body in
          let body_rev, _, body_cyc = stage_items machine clobbers entry body in
          let arr = Array.of_list (List.rev body_rev) in
          let n = Array.length arr in
          let trips k st =
            for _ = 1 to k do
              for j = 0 to n - 1 do
                (Array.unsafe_get arr j) st
              done
            done
          in
          (* The job's deadline is polled between chunks of trips worth
             about [check_cycles] simulated cycles, nested loops' trips
             included through [body_cyc], so a loop that finishes within
             one chunk never polls and no trip carries a check. *)
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
          let exit_know = transfer_items clobbers entry body in
          (s :: acc, exit_know, cyc + (count * body_cyc)))
    ([], know, 0) items

let prepare ?(width = 16) machine ~layout (asm : Target.Asm.t) =
  let clobbers = mode_clobbers machine in
  let know = initial_knowledge machine in
  let steps_rev, _, static_cycles =
    stage_items machine clobbers know asm.Target.Asm.items
  in
  let var_index = Hashtbl.create 17 in
  List.iter
    (fun (e : Target.Layout.entry) ->
      if not (Hashtbl.mem var_index e.Target.Layout.name) then
        Hashtbl.add var_index e.Target.Layout.name e)
    layout.Target.Layout.entries;
  {
    width;
    machine;
    layout;
    steps = Array.of_list (List.rev steps_rev);
    static_cycles;
    var_index;
    mode_seed =
      List.map
        (fun (m, v) -> (Target.Mstate.mode_slot m, v))
        machine.Target.Machine.modes;
    input_memo = None;
  }

let run plan ~inputs =
  let st =
    Target.Mstate.create ~width:plan.width ~layout:plan.layout ~modes:[] ()
  in
  List.iter
    (fun (s, v) -> Target.Mstate.mode_write_slot st s v)
    plan.mode_seed;
  let resolved =
    match plan.input_memo with
    | Some (last, resolved) when last == inputs -> resolved
    | _ ->
      let resolved =
        List.map
          (fun (name, values) -> (Hashtbl.find plan.var_index name, values))
          inputs
      in
      plan.input_memo <- Some (inputs, resolved);
      resolved
  in
  List.iter (fun (e, values) -> Target.Mstate.blit_entry st e values) resolved;
  let steps = plan.steps in
  (try
     for j = 0 to Array.length steps - 1 do
       (Array.unsafe_get steps j) st
     done
   with
  | Invalid_argument msg -> raise (Exec_error msg)
  | Raw_invalid msg -> invalid_arg msg);
  Target.Mstate.add_cycles st plan.static_cycles;
  { cycles = Target.Mstate.cycles st; state = st }
