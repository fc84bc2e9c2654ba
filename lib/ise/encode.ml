exception Encode_error of string

let set_field net word fname value =
  match (Rtl.Netlist.find net fname).Rtl.Comp.kind with
  | Rtl.Comp.Field (lo, hi) ->
    let width = hi - lo + 1 in
    if value < 0 || value >= 1 lsl width then
      raise
        (Encode_error
           (Printf.sprintf "value %d does not fit field %s (%d bits)" value
              fname width));
    word lor (value lsl lo)
  | _ -> raise (Encode_error (fname ^ " is not a field"))

(* Assembles one instruction: justified control bits from the transfer,
   address fields from the instruction's memory operands, immediate fields
   from its immediate operands.  Raises [Encode_error] when a value does
   not fit its field. *)
let word net (t : Transfer.t) ~layout (i : Target.Instr.t) =
  let w = List.fold_left (fun w (f, v) -> set_field net w f v) 0 t.settings in
  (* Fill address and immediate fields from operands, in leaf order; the
     destination memory field comes from the trailing operand. *)
  let queue = ref i.Target.Instr.operands in
  let next () =
    match !queue with
    | op :: rest ->
      queue := rest;
      op
    | [] -> raise (Encode_error (i.opcode ^ ": missing operand"))
  in
  let fill w leaf =
    match leaf with
    | Transfer.Reg _ | Transfer.Const _ -> w
    | Transfer.Mem_direct (_, fname) -> (
      match next () with
      | Target.Instr.Dir r ->
        set_field net w fname (Target.Layout.base_address layout r)
      | _ -> raise (Encode_error (i.opcode ^ ": expected memory operand")))
    | Transfer.Imm (fname, _) -> (
      match next () with
      | Target.Instr.Imm k -> set_field net w fname k
      | _ -> raise (Encode_error (i.opcode ^ ": expected immediate operand")))
  in
  let w = List.fold_left fill w (Transfer.leaves t.expr) in
  match t.dest with
  | Transfer.Dreg _ -> w
  | Transfer.Dmem (_, fname) -> (
    match next () with
    | Target.Instr.Dir r ->
      set_field net w fname (Target.Layout.base_address layout r)
    | _ -> raise (Encode_error (i.opcode ^ ": expected destination operand")))

let assemble net ~layout (asm : Target.Asm.t) =
  let transfers = Extract.run net in
  let by_name = List.map (fun (t : Transfer.t) -> (t.name, t)) transfers in
  let encode_instr (i : Target.Instr.t) =
    match List.assoc_opt i.Target.Instr.opcode by_name with
    | Some t -> word net t ~layout i
    | None -> raise (Encode_error ("unknown opcode " ^ i.Target.Instr.opcode))
  in
  let go = function
    | Target.Asm.Op i -> [ encode_instr i ]
    | Target.Asm.Par _ ->
      raise (Encode_error "netlist machines have no parallel words")
    | Target.Asm.Loop _ -> raise (Encode_error "netlist machines have no loops")
  in
  List.concat_map go asm.Target.Asm.items

let the_memory net =
  match
    List.find_opt
      (fun (c : Rtl.Comp.t) ->
        match c.kind with Rtl.Comp.Memory _ -> true | _ -> false)
      (Rtl.Netlist.storages net)
  with
  | Some c -> c.Rtl.Comp.name
  | None -> raise (Encode_error "netlist has no memory")

let run_on_netlist net ~layout ~inputs ?(pool = []) asm =
  let words = assemble net ~layout asm in
  let st = Rtl.Rtsim.create net in
  let mem = the_memory net in
  List.iter
    (fun (name, values) ->
      let e = Target.Layout.find layout name in
      Array.iteri
        (fun i v -> Rtl.Rtsim.write_mem st mem (e.Target.Layout.addr + i) v)
        values)
    (inputs @ List.map (fun (n, v) -> (n, [| v |])) pool);
  List.iter (fun w -> Rtl.Rtsim.step net st w) words;
  st

let read_var net st ~layout name =
  let mem = the_memory net in
  let e = Target.Layout.find layout name in
  Array.init e.Target.Layout.size (fun i ->
      Rtl.Rtsim.read_mem st mem (e.Target.Layout.addr + i))
