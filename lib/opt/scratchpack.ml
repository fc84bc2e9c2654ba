(* Instruction selection and spilling allocate a fresh "$s" memory cell per
   serialized value, so deep expressions inflate the data segment linearly
   even though the values' lifetimes are short and mostly nested.  Rename
   the cells with a loop-aware linear scan so the footprint is the peak
   number of simultaneously live scratch values instead. *)

(* The number [n] of a cell named "$s<n>" the way
   {!Target.Machine.fresh_scratch} spells it (ten digits at most), or -1
   for any other name. *)
let cell_number base =
  let len = String.length base in
  if len < 3 || len > 12 || base.[0] <> '$' || base.[1] <> 's'
     || (base.[2] = '0' && len > 3)
  then -1
  else
    let rec digits k n =
      if k = len then n
      else
        match base.[k] with
        | '0' .. '9' as c -> digits (k + 1) ((10 * n) + Char.code c - 48)
        | _ -> -1
    in
    digits 2 0

let grow a n fill =
  if n < Array.length a then a
  else begin
    let b = Array.make (Int.max (n + 1) (2 * Array.length a)) fill in
    Array.blit a 0 b 0 (Array.length a);
    b
  end

(* Record, per scratch cell, the first and last instruction positions it
   is touched at, plus every loop span.  A lifetime that straddles a loop
   boundary covers the whole loop ({!Regalloc.extend}): the cell is live
   around the back edge (induction cells are the common case). *)
let occurrences items =
  let first = ref [||] and last = ref [||] in
  let note k (r : Ir.Mref.t) =
    let n = cell_number r.Ir.Mref.base in
    if n >= 0 then begin
      first := grow !first n max_int;
      last := grow !last n (-1);
      if k < !first.(n) then !first.(n) <- k;
      if k > !last.(n) then !last.(n) <- k
    end
  in
  let rec note_op k op =
    match op with
    | Target.Instr.Dir r | Target.Instr.Adr r -> note k r
    | Target.Instr.Ind (ar, _, over) ->
      note_op k ar;
      Option.iter (note k) over
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _ -> ()
  in
  let spans =
    Target.Asm.loop_spans
      (fun k (i : Target.Instr.t) ->
        List.iter (note_op k) i.operands;
        List.iter (note_op k) i.defs;
        List.iter (note_op k) i.uses)
      items
  in
  (!first, !last, spans)

let run (asm : Target.Asm.t) =
  let first, last, spans = occurrences asm.Target.Asm.items in
  (* Cells ordered by extended lifetime, then by number. *)
  let cells = ref [] in
  for n = Array.length last - 1 downto 0 do
    if last.(n) >= 0 then
      let lo, hi = Regalloc.extend spans (first.(n), last.(n)) in
      cells := (lo, hi, n) :: !cells
  done;
  let cells = Array.of_list !cells in
  Array.sort
    (fun (l1, h1, n1) (l2, h2, n2) ->
      if l1 <> l2 then Int.compare l1 l2
      else if h1 <> h2 then Int.compare h1 h2
      else Int.compare n1 n2)
    cells;
  (* Linear scan over cells: a slot frees strictly after its last touch,
     and a cell takes the lowest free slot. *)
  let slot_of = Array.make (Array.length last) (-1) in
  let busy_until = Array.make (Array.length cells) (-1) in
  let next = ref 0 in
  Array.iter
    (fun (lo, hi, n) ->
      let rec lowest s =
        if s = !next || busy_until.(s) < lo then s else lowest (s + 1)
      in
      let s = lowest 0 in
      if s = !next then incr next;
      busy_until.(s) <- hi;
      slot_of.(n) <- s)
    cells;
  let names = Array.init !next (fun s -> "$s" ^ string_of_int s) in
  let rename (r : Ir.Mref.t) =
    let n = cell_number r.Ir.Mref.base in
    if n < 0 then r else { r with Ir.Mref.base = names.(slot_of.(n)) }
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
  (asm, List.init !next (fun s -> (names.(s), 1)))
