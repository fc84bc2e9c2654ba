type strategy = Lazy | Naive

(* The mode change [i] needs where [know] holds: always under [Naive], only
   when the known value differs under [Lazy]. *)
let change_for machine strategy know (i : Target.Instr.t) =
  match (i.mode_req, strategy) with
  | None, _ -> None
  | Some (m, v), Lazy when Target.Modes.Smap.find_opt m know = Some v -> None
  | Some (m, v), (Lazy | Naive) ->
    Some (machine.Target.Machine.mode_change m v)

(* Returns the knowledge at exit and the rewritten items.  After [i] its
   requirement holds whether or not a change went before it, so
   [Target.Modes.after] on [i] alone gives the knowledge after both. *)
let rec process machine strategy clobbers know items =
  let know, rev =
    List.fold_left
      (fun (know, acc) item ->
        match item with
        | Target.Asm.Op i ->
          let acc =
            match change_for machine strategy know i with
            | None -> acc
            | Some change -> Target.Asm.Op change :: acc
          in
          (Target.Modes.after clobbers know i, item :: acc)
        | Target.Asm.Par is ->
          (* Parallel words appear only after compaction, which runs later. *)
          (List.fold_left (Target.Modes.after clobbers) know is, item :: acc)
        | Target.Asm.Loop l ->
          let exit_know, body =
            process machine strategy clobbers
              (Target.Modes.loop_entry clobbers know l.body)
              l.body
          in
          ( (if l.count <= 0 then know else exit_know),
            Target.Asm.Loop { l with body } :: acc ))
      (know, []) items
  in
  (know, List.rev rev)

let run ~strategy machine items =
  let _, items' =
    process machine strategy
      (Target.Modes.clobbers machine)
      (Target.Modes.reset machine)
      items
  in
  items'

let changes_inserted items =
  let n = ref 0 in
  Target.Asm.iter_items
    (fun i -> if i.Target.Instr.mode_set <> None then incr n)
    items;
  !n

let verify machine items =
  let exception Violation of string in
  let clobbers = Target.Modes.clobbers machine in
  let check know (i : Target.Instr.t) =
    (match i.mode_req with
    | None -> ()
    | Some (m, v) -> (
      match Target.Modes.Smap.find_opt m know with
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
    Target.Modes.after clobbers know i
  in
  let rec go know = function
    | Target.Asm.Op i -> check know i
    | Target.Asm.Par is -> List.fold_left check know is
    | Target.Asm.Loop { count; body; _ } ->
      let exit_know =
        List.fold_left go (Target.Modes.loop_entry clobbers know body) body
      in
      if count <= 0 then know else exit_know
  in
  match List.fold_left go (Target.Modes.reset machine) items with
  | (_ : Target.Modes.t) -> Ok ()
  | exception Violation msg -> Error msg
