exception Pressure of string

(* Linearize the program: each instruction gets a position; loops record
   their [start, end] span. Lifetime endpoints use 2*pos for uses and
   2*pos + 1 for defs so a def can reuse the register an operand releases
   at the same instruction. *)

type lin = {
  spans : (int * int) list;
  ranges : (Target.Instr.vreg, int * int) Hashtbl.t;
  def_positions : (Target.Instr.vreg, int list) Hashtbl.t;
  use_positions : (Target.Instr.vreg, int list) Hashtbl.t;
}

let note lin v point =
  match Hashtbl.find_opt lin.ranges v with
  | None -> Hashtbl.replace lin.ranges v (point, point)
  | Some (lo, hi) ->
    Hashtbl.replace lin.ranges v (min lo point, max hi point)

let push tbl v p =
  Hashtbl.replace tbl v (p :: Option.value ~default:[] (Hashtbl.find_opt tbl v))

let scan_instr lin p (i : Target.Instr.t) =
  let vregs ops = List.concat_map Target.Instr.vregs_of_operand ops in
  List.iter
    (fun v ->
      note lin v (2 * p);
      push lin.use_positions v p)
    (vregs i.uses);
  List.iter
    (fun v ->
      note lin v ((2 * p) + 1);
      push lin.def_positions v p)
    (vregs i.defs);
  (* Address registers inside printable operands that appear in neither defs
     nor uses still occupy their register: treat as uses. *)
  List.iter
    (fun v ->
      note lin v (2 * p);
      push lin.use_positions v p)
    (vregs i.operands)

let linearize items =
  let lin =
    {
      spans = [];
      ranges = Hashtbl.create 64;
      def_positions = Hashtbl.create 64;
      use_positions = Hashtbl.create 64;
    }
  in
  let spans = Target.Asm.loop_spans (scan_instr lin) items in
  (* A loop spans from the use point of its first instruction to the def
     point of its last. *)
  let span (first, last) = (2 * first, (2 * last) + 1) in
  { lin with spans = List.map span spans }

(* Extend a lifetime over every loop it straddles, to fixpoint. *)
let extend spans (lo, hi) =
  let rec fix (lo, hi) =
    let lo', hi' =
      List.fold_left
        (fun (lo, hi) (s, e) ->
          let intersects = lo <= e && hi >= s in
          let inside = lo >= s && hi <= e in
          if intersects && not inside then (min lo s, max hi e) else (lo, hi))
        (lo, hi) spans
    in
    if (lo', hi') = (lo, hi) then (lo, hi) else fix (lo', hi')
  in
  fix (lo, hi)

type interval = {
  vreg : Target.Instr.vreg;
  raw : int * int;
  ext : int * int;
}

(* Linear scan. Returns the assignment, or the failing interval together
   with the same-class intervals live at its start (spill candidates). *)
let allocate machine lin =
  let intervals =
    Hashtbl.fold
      (fun v raw acc -> { vreg = v; raw; ext = extend lin.spans raw } :: acc)
      lin.ranges []
    |> List.sort (fun a b -> compare (fst a.ext) (fst b.ext))
  in
  let assignment : (Target.Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
  let active : (string, (interval * int) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  let free : (string, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let class_state cls =
    match Hashtbl.find_opt free cls with
    | Some f -> (f, Hashtbl.find active cls)
    | None ->
      let count =
        match Target.Regfile.find machine.Target.Machine.regfile cls with
        | c -> c.Target.Regfile.count
        | exception Not_found ->
          invalid_arg ("Regalloc: unknown register class " ^ cls)
      in
      let f = ref (List.init count (fun i -> i)) in
      let a = ref [] in
      Hashtbl.replace free cls f;
      Hashtbl.replace active cls a;
      (f, a)
  in
  let failure = ref None in
  let rec place = function
    | [] -> ()
    | iv :: rest -> (
      let f, a = class_state iv.vreg.vcls in
      let lo, hi = iv.ext in
      let expired, live =
        List.partition (fun (other, _) -> snd other.ext < lo) !a
      in
      a := live;
      List.iter (fun (_, idx) -> f := idx :: !f) expired;
      match !f with
      | idx :: restf ->
        f := restf;
        a := (iv, idx) :: !a;
        Hashtbl.replace assignment iv.vreg idx;
        ignore hi;
        place rest
      | [] -> failure := Some (iv, List.map fst !a))
  in
  place intervals;
  match !failure with
  | None -> Ok assignment
  | Some (iv, actives) -> Error (iv, actives)

(* ---- Spilling ------------------------------------------------------------- *)

let mentions_vreg ops v =
  List.exists
    (fun op -> List.mem v (Target.Instr.vregs_of_operand op))
    ops

let subst_vreg ~from ~into i =
  Target.Instr.map_operands
    (fun op ->
      match op with
      | Target.Instr.Vreg v when v = from -> Target.Instr.Vreg into
      | _ -> op)
    i

(* A spill candidate: single definition, the defining instruction does not
   read it, its lifetime does not straddle a loop boundary, and its class
   has spill instructions. *)
let spillable machine lin (iv : interval) =
  iv.raw = iv.ext
  && List.mem_assoc iv.vreg.vcls machine.Target.Machine.spills
  &&
  match Hashtbl.find_opt lin.def_positions iv.vreg with
  | Some [ _ ] -> true
  | _ -> false

(* Rewrite: store after the definition, reload into a fresh register before
   every use. *)
let insert_spill ctx ops items victim scratch =
  Target.Asm.map_runs
    (List.concat_map (fun (i : Target.Instr.t) ->
         if mentions_vreg i.defs victim then
           [ Target.Asm.Op i;
             Target.Asm.Op (ops.Target.Machine.spill_store victim scratch) ]
         else if mentions_vreg i.uses victim || mentions_vreg i.operands victim
         then
           let nv = Target.Machine.fresh_vreg ctx victim.Target.Instr.vcls in
           [ Target.Asm.Op (ops.Target.Machine.spill_load scratch nv);
             Target.Asm.Op (subst_vreg ~from:victim ~into:nv i) ]
         else [ Target.Asm.Op i ]))
    items

let run ?ctx machine (asm : Target.Asm.t) =
  let rec attempt items fuel =
    Ir.Deadline.check ();
    let lin = linearize items in
    match allocate machine lin with
    | Ok assignment ->
      let rewrite op =
        match op with
        | Target.Instr.Vreg v ->
          Target.Instr.Reg { cls = v.vcls; idx = Hashtbl.find assignment v }
        | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
        | Target.Instr.Dir _ | Target.Instr.Ind _ ->
          op
      in
      Target.Asm.map (Target.Instr.map_operands rewrite)
        { asm with items }
    | Error (iv, actives) -> (
      let fail () =
        raise
          (Pressure
             (Printf.sprintf
                "class %s: no free register for %%%s%d (live range %d..%d)"
                iv.vreg.vcls iv.vreg.vcls iv.vreg.vid (fst iv.ext)
                (snd iv.ext)))
      in
      match ctx with
      | None -> fail ()
      | Some ctx when fuel > 0 -> (
        (* Spill the candidate whose lifetime reaches furthest. *)
        let candidates =
          List.filter (spillable machine lin) (iv :: actives)
          |> List.sort (fun a b -> compare (snd b.ext) (snd a.ext))
        in
        match candidates with
        | [] -> fail ()
        | victim :: _ ->
          let ops =
            List.assoc victim.vreg.vcls machine.Target.Machine.spills
          in
          let scratch = Target.Machine.fresh_scratch ctx in
          attempt (insert_spill ctx ops items victim.vreg scratch) (fuel - 1))
      | Some _ -> fail ())
  in
  (* Each round inserts one spill, so allow one round per instruction (with
     some headroom for tiny programs); the bound only guards against a
     non-converging rewrite loop. *)
  attempt asm.Target.Asm.items (16 + Target.Asm.instr_count asm)

let spills_inserted ~before ~after =
  Target.Asm.instr_count after - Target.Asm.instr_count before
