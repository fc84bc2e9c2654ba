(* Locations for dependence analysis: physical registers (compaction runs
   after allocation), virtual registers (defensive), memory bases, the
   "all memory" token for indirect accesses, and mode variables. *)
type loc =
  | Lreg of string * int
  | Lvreg of string * int
  | Lmem of string
  | Lmem_any
  | Lmode of string

let rec locs_of_operand op =
  match op with
  | Target.Instr.Reg r -> [ Lreg (r.cls, r.idx) ]
  | Target.Instr.Vreg v -> [ Lvreg (v.vcls, v.vid) ]
  | Target.Instr.Imm _ | Target.Instr.Adr _ -> []
  | Target.Instr.Dir r -> [ Lmem r.Ir.Mref.base ]
  | Target.Instr.Ind (ar, u, over) ->
    let ar_locs = locs_of_operand ar in
    let ar_writes =
      match u with
      | Target.Instr.No_update -> []
      | Target.Instr.Post_inc | Target.Instr.Post_dec -> ar_locs
    in
    let mem =
      match over with
      | Some r -> Lmem r.Ir.Mref.base
      | None -> Lmem_any
    in
    (mem :: ar_locs) @ ar_writes

let reads (i : Target.Instr.t) =
  List.concat_map locs_of_operand i.uses
  @ (match i.mode_req with Some (m, _) -> [ Lmode m ] | None -> [])
  (* A post-updating use also writes its address register, captured below. *)

let writes (i : Target.Instr.t) =
  List.concat_map locs_of_operand i.defs
  @ (match i.mode_set with Some (m, _) -> [ Lmode m ] | None -> [])
  @ (* post-update side effects on address registers, wherever they occur *)
  List.concat_map
    (fun op ->
      let rec updates op =
        match op with
        | Target.Instr.Ind
            (ar, (Target.Instr.Post_inc | Target.Instr.Post_dec), _) ->
          locs_of_operand ar
        | Target.Instr.Ind (ar, Target.Instr.No_update, _) -> updates ar
        | _ -> []
      in
      updates op)
    (i.uses @ i.defs @ i.operands)

let clash a b =
  List.exists
    (fun la ->
      List.exists
        (fun lb ->
          match (la, lb) with
          | Lmem_any, (Lmem _ | Lmem_any) | Lmem _, Lmem_any -> true
          | _ -> la = lb)
        b)
    a

let depends i j =
  let ri, wi = (reads i, writes i) in
  let rj, wj = (reads j, writes j) in
  clash wi rj || clash ri wj || clash wi wj

(* Greedy list compaction of one block: repeatedly open a word with the
   first ready instruction, then top it up with later ready instructions
   that fit a free slot and conflict with nothing already in the word. *)
let pack_block slots word_ok (instrs : Target.Instr.t list) =
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let scheduled = Array.make n false in
  let words = ref [] in
  (* Ready = every earlier instruction it depends on is already scheduled
     (word-internal ordering is excluded separately by the conflict check). *)
  let ready k =
    let rec ok l =
      l >= k || ((scheduled.(l) || not (depends arr.(l) arr.(k))) && ok (l + 1))
    in
    ok 0
  in
  let capacity funit =
    match List.assoc_opt funit slots with Some c -> c | None -> 0
  in
  let packable (i : Target.Instr.t) =
    capacity i.funit > 0 && i.words = 1
  in
  let remaining = ref n in
  while !remaining > 0 do
    let word = ref [] in
    let used = Hashtbl.create 4 in
    let take k =
      let i = arr.(k) in
      let cnt =
        Option.value ~default:0 (Hashtbl.find_opt used i.Target.Instr.funit)
      in
      word := i :: !word;
      Hashtbl.replace used i.Target.Instr.funit (cnt + 1);
      scheduled.(k) <- true;
      decr remaining
    in
    (* Open the word. *)
    let opener =
      let rec find k =
        if k >= n then None
        else if (not scheduled.(k)) && ready k then Some k
        else find (k + 1)
      in
      find 0
    in
    (match opener with
    | None -> assert false (* a dependence cycle is impossible in a list *)
    | Some k0 ->
      take k0;
      if packable arr.(k0) then
        (* Top up with later ready instructions. *)
        for k = k0 + 1 to n - 1 do
          let i = arr.(k) in
          let cnt =
            Option.value ~default:0
              (Hashtbl.find_opt used i.Target.Instr.funit)
          in
          if
            (not scheduled.(k)) && ready k && packable i
            && capacity i.Target.Instr.funit > cnt
            && List.for_all (fun j -> not (depends j i || depends i j)) !word
            && word_ok (List.rev (i :: !word))
          then take k
        done);
    match List.rev !word with
    | [] -> ()
    | [ single ] -> words := Target.Asm.Op single :: !words
    | multi -> words := Target.Asm.Par multi :: !words
  done;
  List.rev !words

let run ?(word_ok = fun _ -> true) machine (asm : Target.Asm.t) =
  match machine.Target.Machine.slots with
  | None -> asm
  | Some slots ->
    let items = Target.Asm.map_runs (pack_block slots word_ok) asm.items in
    { asm with items }
