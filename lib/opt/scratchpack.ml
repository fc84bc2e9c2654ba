(* Instruction selection and spilling allocate a fresh "$s" memory cell per
   serialized value, so deep expressions inflate the data segment linearly
   even though the values' lifetimes are short and mostly nested.  Rename
   the cells with a loop-aware linear scan so the footprint is the peak
   number of simultaneously live scratch values instead. *)

let is_scratch base =
  String.length base >= 2 && base.[0] = '$' && base.[1] = 's'

(* Record, per scratch base, the instruction positions it is touched at,
   plus every loop span.  A lifetime that straddles a loop boundary covers
   the whole loop ({!Regalloc.extend}): the cell is live around the back
   edge (induction cells are the common case). *)
let occurrences items =
  let pos = ref 0 in
  let ranges : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
  let note base =
    if is_scratch base then
      match Hashtbl.find_opt ranges base with
      | None -> Hashtbl.replace ranges base (!pos, !pos)
      | Some (lo, hi) ->
        Hashtbl.replace ranges base (min lo !pos, max hi !pos)
  in
  let rec note_op op =
    match op with
    | Target.Instr.Dir r | Target.Instr.Adr r -> note r.Ir.Mref.base
    | Target.Instr.Ind (ar, _, over) ->
      note_op ar;
      Option.iter (fun (r : Ir.Mref.t) -> note r.Ir.Mref.base) over
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _ -> ()
  in
  let spans =
    Target.Asm.loop_spans
      (fun k (i : Target.Instr.t) ->
        pos := k;
        List.iter note_op (i.operands @ i.defs @ i.uses))
      items
  in
  (ranges, spans)

let run (asm : Target.Asm.t) =
  let ranges, spans = occurrences asm.Target.Asm.items in
  let intervals =
    Hashtbl.fold
      (fun base raw acc -> (base, Regalloc.extend spans raw) :: acc)
      ranges []
    |> List.sort (fun (_, a) (_, b) -> compare a b)
  in
  (* Linear scan over cells: a slot frees strictly after its last touch. *)
  let mapping : (string, string) Hashtbl.t = Hashtbl.create 16 in
  let active = ref [] in
  let free = ref [] in
  let next = ref 0 in
  List.iter
    (fun (base, (lo, hi)) ->
      let expired, live = List.partition (fun (_, h) -> h < lo) !active in
      active := live;
      List.iter (fun (slot, _) -> free := slot :: !free) expired;
      let slot =
        match List.sort compare !free with
        | s :: rest ->
          free := rest;
          s
        | [] ->
          let s = !next in
          incr next;
          s
      in
      active := (slot, hi) :: !active;
      Hashtbl.replace mapping base (Printf.sprintf "$s%d" slot))
    intervals;
  let rename (r : Ir.Mref.t) =
    match Hashtbl.find_opt mapping r.Ir.Mref.base with
    | Some base -> { r with Ir.Mref.base }
    | None -> r
  in
  let rewrite op =
    match op with
    | Target.Instr.Dir r -> Target.Instr.Dir (rename r)
    | Target.Instr.Adr r -> Target.Instr.Adr (rename r)
    | Target.Instr.Ind (ar, u, over) ->
      Target.Instr.Ind (ar, u, Option.map rename over)
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _ -> op
  in
  let asm = Target.Asm.map (Target.Instr.map_operands rewrite) asm in
  let decls = List.init !next (fun i -> (Printf.sprintf "$s%d" i, 1)) in
  (asm, decls)
