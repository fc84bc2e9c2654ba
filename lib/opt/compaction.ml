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

(* Dependence edges of a block, built in one pass over its instructions.
   Per location we keep the last writer and the readers since that write;
   an instruction gets an edge from the last writer of each location it
   reads or writes, and from the readers since then of each location it
   writes.  Memory bases and the any-memory token consult each other: a
   base access also meets the last any-memory writer (and a base write the
   any-memory readers since it), and an any-memory access meets the base
   writers (and, if it writes, the base readers) since the last
   any-memory write.  A dependence this leaves out is implied by a path
   of edges — an earlier writer of the location precedes the last one —
   and for the greedy packing below that is the same: an instruction's
   predecessors are all scheduled exactly when its direct ones are, and
   the direct ones hold every dependence on the word being filled.
   Returns each instruction's distinct predecessors and successors. *)
type last = { mutable writer : int; mutable readers : int list }

let edges (reads : loc list array) (writes : loc list array) =
  let n = Array.length reads in
  let preds = Array.make n [] and succs = Array.make n [] in
  let mark = Array.make n (-1) in
  let edge l k =
    if l >= 0 && mark.(l) <> k then begin
      mark.(l) <- k;
      preds.(k) <- l :: preds.(k);
      succs.(l) <- k :: succs.(l)
    end
  in
  let table = Hashtbl.create 64 in
  let last x =
    match Hashtbl.find_opt table x with
    | Some e -> e
    | None ->
      let e = { writer = -1; readers = [] } in
      Hashtbl.replace table x e;
      e
  in
  let any = last Lmem_any in
  (* Base accesses since the last any-memory write. *)
  let mem_writers = ref [] and mem_readers = ref [] in
  for k = 0 to n - 1 do
    List.iter
      (fun x ->
        let e = last x in
        edge e.writer k;
        match x with
        | Lmem _ -> edge any.writer k
        | Lmem_any -> List.iter (fun l -> edge l k) !mem_writers
        | Lreg _ | Lvreg _ | Lmode _ -> ())
      reads.(k);
    List.iter
      (fun x ->
        let e = last x in
        edge e.writer k;
        List.iter (fun l -> edge l k) e.readers;
        match x with
        | Lmem _ ->
          edge any.writer k;
          List.iter (fun l -> edge l k) any.readers
        | Lmem_any ->
          List.iter (fun l -> edge l k) !mem_writers;
          List.iter (fun l -> edge l k) !mem_readers
        | Lreg _ | Lvreg _ | Lmode _ -> ())
      writes.(k);
    List.iter
      (fun x ->
        let e = last x in
        e.readers <- k :: e.readers;
        match x with
        | Lmem _ -> mem_readers := k :: !mem_readers
        | Lmem_any | Lreg _ | Lvreg _ | Lmode _ -> ())
      reads.(k);
    List.iter
      (fun x ->
        let e = last x in
        e.writer <- k;
        e.readers <- [];
        match x with
        | Lmem _ -> mem_writers := k :: !mem_writers
        | Lmem_any ->
          mem_writers := [];
          mem_readers := []
        | Lreg _ | Lvreg _ | Lmode _ -> ())
      writes.(k)
  done;
  (preds, succs)

(* Two ascending index lists merged; the tail of [l] past the last element
   of [fresh] is shared, not copied. *)
let rec merge fresh l =
  match (fresh, l) with
  | [], l | l, [] -> l
  | f :: fs, k :: ks -> if f < k then f :: merge fs l else k :: merge fresh ks

(* Greedy list compaction of one block: repeatedly open a word with the
   first unscheduled instruction (every earlier one is scheduled, so it is
   ready), then top it up with later ready instructions that fit a free
   slot.  Ready means that every predecessor is scheduled: a count per
   instruction, decremented as its predecessors are taken.  The ready
   instructions are kept in index order, and only those ready when the
   word opens are scanned: one that becomes ready on the way has a
   predecessor in the word, while those ready at the opening have every
   predecessor in earlier words, so no dependence test is needed.  The
   scan stops once every slot is filled. *)
let pack_block slots word_ok (instrs : Target.Instr.t list) =
  Ir.Deadline.check ();
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let preds, succs =
    edges
      (Array.map (fun i -> List.sort_uniq compare (reads i)) arr)
      (Array.map (fun i -> List.sort_uniq compare (writes i)) arr)
  in
  let unscheduled = Array.map List.length preds in
  let units = Array.of_list slots in
  (* Each instruction's slot kind (the first entry for its unit), or -1. *)
  let unit_of =
    Array.map
      (fun (i : Target.Instr.t) ->
        Option.value ~default:(-1)
          (List.find_index (fun (u, _) -> u = i.funit) slots))
      arr
  in
  let capacity k = if unit_of.(k) < 0 then 0 else snd units.(unit_of.(k)) in
  let packable k = capacity k > 0 && arr.(k).Target.Instr.words = 1 in
  let slot_count = List.fold_left (fun s (_, c) -> s + max 0 c) 0 slots in
  let used = Array.make (Array.length units) 0 in
  (* The words packed from the ready list on, after [words] (last first). *)
  let rec pack words = function
    | [] -> List.rev words
    | k0 :: ready ->
      let word = ref [] and fresh = ref [] in
      Array.fill used 0 (Array.length used) 0;
      let take k =
        word := arr.(k) :: !word;
        if unit_of.(k) >= 0 then used.(unit_of.(k)) <- used.(unit_of.(k)) + 1;
        List.iter
          (fun l ->
            unscheduled.(l) <- unscheduled.(l) - 1;
            if unscheduled.(l) = 0 then fresh := l :: !fresh)
          succs.(k)
      in
      (* The ready list without the instructions taken, in order. *)
      let rec top_up free kept = function
        | [] -> List.rev kept
        | rest when free = 0 -> List.rev_append kept rest
        | k :: rest ->
          if
            packable k
            && capacity k > used.(unit_of.(k))
            && word_ok (List.rev (arr.(k) :: !word))
          then begin
            take k;
            top_up (free - 1) kept rest
          end
          else top_up free (k :: kept) rest
      in
      take k0;
      let ready =
        if packable k0 then top_up (slot_count - 1) [] ready else ready
      in
      let w =
        match List.rev !word with
        | [ single ] -> Target.Asm.Op single
        | multi -> Target.Asm.Par multi
      in
      pack (w :: words) (merge (List.sort compare !fresh) ready)
  in
  pack [] (List.filter (fun k -> unscheduled.(k) = 0) (List.init n Fun.id))

let run ?(word_ok = fun _ -> true) machine (asm : Target.Asm.t) =
  match machine.Target.Machine.slots with
  | None -> asm
  | Some slots ->
    let items = Target.Asm.map_runs (pack_block slots word_ok) asm.items in
    { asm with items }
