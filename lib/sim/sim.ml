module Compile = Compile
module Deadline = Deadline

exception Mode_violation = Compile.Mode_violation
exception Exec_error = Compile.Exec_error

type outcome = Compile.outcome = { cycles : int; state : Target.Mstate.t }
type engine = Interp | Compiled

let exec_instr machine st (i : Target.Instr.t) =
  (match i.mode_req with
  | None -> ()
  | Some (m, v) ->
    let actual = Target.Mstate.get_mode st m in
    if actual <> v then
      raise
        (Mode_violation
           (Printf.sprintf "%s requires %s=%d, machine has %s=%d"
              i.opcode m v m actual)));
  (match i.mode_set with
  | Some (m, v) -> Target.Mstate.set_mode st m v
  | None -> (
    match Target.Machine.exec machine st i with
    | () -> ()
    | exception Invalid_argument msg -> raise (Exec_error msg)));
  (* post-modify addressing becomes visible at the instruction boundary *)
  Target.Mstate.apply_updates st

let run_interp ~width machine ~layout ~inputs (asm : Target.Asm.t) =
  let st =
    Target.Mstate.create ~width ~layout ~modes:machine.Target.Machine.modes ()
  in
  List.iter (fun (name, values) -> Target.Mstate.set_var st name values) inputs;
  let rec go = function
    | Target.Asm.Op i ->
      exec_instr machine st i;
      Target.Mstate.add_cycles st i.cycles
    | Target.Asm.Par is ->
      List.iter (exec_instr machine st) is;
      Target.Mstate.add_cycles st 1
    | Target.Asm.Loop { count; body; _ } ->
      for _ = 1 to count do
        List.iter go body
      done
  in
  List.iter go asm.Target.Asm.items;
  { cycles = Target.Mstate.cycles st; state = st }

let run ?(width = 16) ?(engine = Compiled) machine ~layout ~inputs
    (asm : Target.Asm.t) =
  match engine with
  | Interp -> run_interp ~width machine ~layout ~inputs asm
  | Compiled -> Compile.run (Compile.prepare ~width machine ~layout asm) ~inputs

let outputs outcome (prog : Ir.Prog.t) =
  List.filter_map
    (fun (d : Ir.Prog.decl) ->
      match d.storage with
      | Ir.Prog.Output -> Some (d.name, Target.Mstate.get_var outcome.state d.name)
      | Ir.Prog.Input | Ir.Prog.Temp -> None)
    prog.decls
