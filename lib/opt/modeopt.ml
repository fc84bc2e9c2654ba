type strategy = Lazy | Naive

module Smap = Map.Make (String)

(* Statically known mode values; a variable absent from the map is unknown. *)
type state = int Smap.t

let apply_instr (st : state) (i : Target.Instr.t) =
  match i.mode_set with Some (m, v) -> Smap.add m v st | None -> st

let reset_state machine : state =
  List.fold_left
    (fun st (m, v) -> Smap.add m v st)
    Smap.empty machine.Target.Machine.modes

(* The mode change [i] needs in state [st]: always under [Naive], only
   when the known value differs under [Lazy]. *)
let change_for machine strategy st (i : Target.Instr.t) =
  match (i.mode_req, strategy) with
  | None, _ -> None
  | Some (m, v), Lazy when Smap.find_opt m st = Some v -> None
  | Some (m, v), (Lazy | Naive) ->
    Some (machine.Target.Machine.mode_change m v)

(* Returns the exit state and the rewritten items. *)
let rec process machine strategy st items =
  let st, rev =
    List.fold_left
      (fun (st, acc) item ->
        match item with
        | Target.Asm.Op i ->
          let st, acc =
            match change_for machine strategy st i with
            | None -> (st, acc)
            | Some change ->
              (apply_instr st change, Target.Asm.Op change :: acc)
          in
          (apply_instr st i, item :: acc)
        | Target.Asm.Par is ->
          (* Parallel words appear only after compaction, which runs later. *)
          (List.fold_left apply_instr st is, item :: acc)
        | Target.Asm.Loop l ->
          let exit_st, body = process machine strategy st l.body in
          let exit_st, body =
            (* Lazy: keep the body compiled against the entry state when that
               state is a fixpoint of it, otherwise recompile it against an
               unknown state. *)
            if strategy = Naive || Smap.equal Int.equal exit_st st then
              (exit_st, body)
            else process machine strategy Smap.empty l.body
          in
          (exit_st, Target.Asm.Loop { l with body } :: acc))
      (st, []) items
  in
  (st, List.rev rev)

let run ~strategy machine items =
  let _, items' = process machine strategy (reset_state machine) items in
  items'

let changes_inserted items =
  let n = ref 0 in
  Target.Asm.iter_items
    (fun i -> if i.Target.Instr.mode_set <> None then incr n)
    items;
  !n

let verify machine items =
  let exception Violation of string in
  let check st (i : Target.Instr.t) =
    (match i.mode_req with
    | None -> ()
    | Some (m, v) -> (
      match Smap.find_opt m st with
      | Some v' when v' = v -> ()
      | Some v' ->
        raise
          (Violation
             (Printf.sprintf "%s requires %s=%d but %s=%d holds"
                i.opcode m v m v'))
      | None ->
        raise
          (Violation
             (Printf.sprintf "%s requires %s=%d but %s is unknown"
                i.opcode m v m))));
    apply_instr st i
  in
  let rec go st = function
    | Target.Asm.Op i -> check st i
    | Target.Asm.Par is -> List.fold_left check st is
    | Target.Asm.Loop { body; _ } ->
      (* Entry state must be a fixpoint of the body; otherwise verify the
         body against the meet (unknown) state. *)
      let exit_st = List.fold_left go st body in
      if Smap.equal Int.equal exit_st st then st
      else
        let exit_st = List.fold_left go Smap.empty body in
        exit_st
  in
  match List.fold_left go (reset_state machine) items with
  | (_ : state) -> Ok ()
  | exception Violation msg -> Error msg
