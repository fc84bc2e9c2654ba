(* Static mode knowledge (§3.3, Liao's "residual control"): which machine
   modes hold a value known at compile time at a point of structured
   assembly.  This is the one mode analysis: mode-change minimisation
   ([Opt.Modeopt]) places and verifies mode changes with it, and the
   compiled simulator ([Sim.Compile]) hoists the checks it proves. *)

module Smap = Map.Make (String)

(* Mode name to its known value; a mode absent from the map is unknown. *)
type t = int Smap.t

(* At reset every mode the machine declares holds its reset value. *)
let reset (machine : Machine.t) : t =
  List.fold_left
    (fun k (m, v) -> Smap.add m v k)
    Smap.empty machine.Machine.modes

(* The opcodes the machine's [mode_change] emits.  Run bare, without a
   [mode_set] annotation (tic25's SOVM/ROVM written by hand), such an
   opcode's semantics writes a mode directly, so [after] forgets
   everything there.  A machine whose semantics wrote modes under an
   opcode [mode_change] never emits would defeat the analysis; the
   differential suite is the backstop for such exotics. *)
let clobbers (machine : Machine.t) =
  List.concat_map
    (fun (mode, reset) ->
      List.filter_map
        (fun v ->
          match machine.Machine.mode_change mode v with
          | i -> Some i.Instr.opcode
          | exception _ -> None)
        [ 0; 1; reset ])
    machine.Machine.modes

(* Is [i]'s opcode one of [clobbers]?  Asked of every staged instruction,
   so by [String.equal], not the polymorphic [List.mem]. *)
let rec clobbered (i : Instr.t) = function
  | [] -> false
  | c :: cs -> String.equal c i.Instr.opcode || clobbered i cs

(* Knowledge after [i] runs from [know]: a requirement is known to hold
   (execution goes on only if it passed), a [mode_set] is known, and a
   bare clobbering opcode forgets everything. *)
let after clobbers know (i : Instr.t) =
  let know =
    match i.Instr.mode_req with
    | Some (m, v) -> Smap.add m v know
    | None -> know
  in
  match i.Instr.mode_set with
  | Some (m, v) -> Smap.add m v know
  | None -> if clobbered i clobbers then Smap.empty else know

(* Knowledge after [items]; a loop whose count is ≤ 0 never runs and
   changes nothing. *)
let rec through clobbers know items =
  List.fold_left (through_item clobbers) know items

and through_item clobbers know = function
  | Asm.Op i -> after clobbers know i
  | Asm.Par is -> List.fold_left (after clobbers) know is
  | Asm.Loop { count; body; _ } ->
    if count <= 0 then know
    else through clobbers (loop_entry clobbers know body) body

(* Knowledge on entry to every trip of a loop over [body] entered with
   [know]: [know] itself when one trip gives it back, and nothing
   otherwise.  The first trip enters with [know] and later trips with what
   the trip before left, so only a fixpoint holds at every entry. *)
and loop_entry clobbers know body =
  if Smap.equal Int.equal (through clobbers know body) know then know
  else Smap.empty
