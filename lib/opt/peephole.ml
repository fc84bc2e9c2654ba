(* Store/load forwarding note: forwarding keeps the (wide) register value
   where the memory round-trip would have wrapped it to the word width. This
   is exact under the fixed-point programming contract (intermediate values
   fit the word range or are explicitly saturated), which the rest of the
   system assumes as well. *)

let starts_with_dollar s = String.length s > 0 && s.[0] = '$'

let rec operand_dirs op =
  match op with
  | Target.Instr.Dir r -> [ r ]
  | Target.Instr.Ind (ar, _, _) -> operand_dirs ar
  | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
  | Target.Instr.Adr _ ->
    []

let has_ind ops =
  List.exists
    (fun op -> match op with Target.Instr.Ind _ -> true | _ -> false)
    ops

(* All memory locations read anywhere in the program. *)
let global_reads items =
  let reads = Hashtbl.create 64 in
  Target.Asm.iter_items
    (fun (i : Target.Instr.t) ->
      List.iter
        (fun op ->
          List.iter (fun r -> Hashtbl.replace reads r ()) (operand_dirs op))
        i.uses)
    items;
  reads

let writes_base (i : Target.Instr.t) base =
  List.exists
    (fun op ->
      List.exists (fun (r : Ir.Mref.t) -> r.base = base) (operand_dirs op)
      || match op with Target.Instr.Ind _ -> true | _ -> false)
    i.defs

(* Store/load forwarding within one straight-line block.  The first walk
   decides every forward: a store's lookahead reads only operand shapes,
   register classes and memory operands, which renaming keeps.  Only when
   a load was forwarded does a second walk drop the forwarded loads and
   rename each kept instruction with the renames made before it.  Every
   rename maps a name still present in the rest of the block, so
   following the table's chains composes them in the order they were
   made. *)
let forward_block (instrs : Target.Instr.t list) =
  let deleted = Array.make (List.length instrs) false in
  (* The first load of [m] into [va]'s class at or after position [k],
     unless a write to [m] or a redefinition of the class comes first:
     forwarding across one would stretch a single-register lifetime over
     another value. *)
  let rec scan (m : Ir.Mref.t) (va : Target.Instr.vreg) k = function
    | [] -> None
    | _ :: rest when deleted.(k) -> scan m va (k + 1) rest
    | (j : Target.Instr.t) :: rest -> (
      match (j.defs, j.uses, j.operands) with
      | ( [ Target.Instr.Vreg vb ],
          [ Target.Instr.Dir m' ],
          [ Target.Instr.Dir m'' ] )
        when Ir.Mref.equal m m' && Ir.Mref.equal m m''
             && vb.vcls = va.vcls && j.mode_req = None && j.mode_set = None ->
        Some (k, vb)
      | _ ->
        let redefines_class =
          List.exists
            (fun op ->
              List.exists
                (fun (v : Target.Instr.vreg) -> v.vcls = va.vcls)
                (Target.Instr.vregs_of_operand op))
            j.defs
        in
        if writes_base j m.base || redefines_class then None
        else scan m va (k + 1) rest)
  in
  (* Forwards as (store position, stored register, loaded register),
     latest first. *)
  let rec decide forwards k = function
    | [] -> forwards
    | (i : Target.Instr.t) :: rest -> (
      match (i.defs, i.uses) with
      | [ Target.Instr.Dir m ], [ Target.Instr.Vreg va ]
        when i.mode_set = None -> (
        match scan m va (k + 1) rest with
        | Some (l, vb) ->
          deleted.(l) <- true;
          decide ((k, va, vb) :: forwards) (k + 1) rest
        | None -> decide forwards (k + 1) rest)
      | _ -> decide forwards (k + 1) rest)
  in
  match List.rev (decide [] 0 instrs) with
  | [] -> (instrs, false)
  | forwards ->
    let renames = Hashtbl.create 16 in
    let rec resolve v =
      match Hashtbl.find_opt renames v with
      | None -> v
      | Some w ->
        let r = resolve w in
        if r != w then Hashtbl.replace renames v r;
        r
    in
    let rename i =
      if Hashtbl.length renames = 0 then i
      else
        Target.Instr.map_operands
          (function
            | Target.Instr.Vreg v -> Target.Instr.Vreg (resolve v) | op -> op)
          i
    in
    let forwards = ref forwards and out = ref [] in
    List.iteri
      (fun k i ->
        if not deleted.(k) then out := rename i :: !out;
        match !forwards with
        | (s, va, vb) :: rest when s = k ->
          forwards := rest;
          let va = resolve va and vb = resolve vb in
          if vb <> va then Hashtbl.replace renames vb va
        | _ -> ())
      instrs;
    (List.rev !out, true)

(* Dead-definition elimination within one block, against a global read set. *)
let dce_block reads (instrs : Target.Instr.t list) =
  let changed = ref false in
  let live : (Target.Instr.vreg, unit) Hashtbl.t = Hashtbl.create 32 in
  let mem_live : (Ir.Mref.t, unit) Hashtbl.t = Hashtbl.create 32 in
  let mark_uses (i : Target.Instr.t) =
    List.iter
      (fun op ->
        List.iter (fun v -> Hashtbl.replace live v ()) (Target.Instr.vregs_of_operand op);
        List.iter (fun r -> Hashtbl.replace mem_live r ()) (operand_dirs op))
      (i.uses @ i.operands)
  in
  let keep (i : Target.Instr.t) =
    let deletable_def op =
      match op with
      | Target.Instr.Vreg v -> not (Hashtbl.mem live v)
      | Target.Instr.Dir r ->
        starts_with_dollar r.Ir.Mref.base
        && (not (Hashtbl.mem reads r))
        && not (Hashtbl.mem mem_live r)
      | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
      | Target.Instr.Ind _ ->
        false
    in
    if
      i.mode_set = None && i.funit <> "ctl" && i.defs <> []
      && (not (has_ind (i.uses @ i.defs @ i.operands)))
      && List.for_all deletable_def i.defs
    then begin
      changed := true;
      false
    end
    else begin
      mark_uses i;
      true
    end
  in
  let out = List.rev (List.filter keep (List.rev instrs)) in
  (out, !changed)

let run items =
  let pass items =
    let changed = ref false in
    let reads = global_reads items in
    let items =
      Target.Asm.map_runs
        (fun block ->
          Ir.Deadline.check ();
          let block, c1 = forward_block block in
          let block, c2 = dce_block reads block in
          if c1 || c2 then changed := true;
          List.map (fun i -> Target.Asm.Op i) block)
        items
    in
    (items, !changed)
  in
  let rec fix items n =
    if n = 0 then items
    else
      let items', changed = pass items in
      if changed then fix items' (n - 1) else items'
  in
  fix items 10

let removed ~before ~after =
  let count =
    List.fold_left (fun n it -> n + Target.Asm.item_instr_count it) 0
  in
  count before - count after
