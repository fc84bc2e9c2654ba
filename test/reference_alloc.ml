(* The register allocator, the scratch-cell packer and the listing
   renderer as they were before their tables became dense arrays and the
   listing a single buffer.  They are kept as references the production
   passes must agree with output for output.  Two changes make them
   deterministic where they used to follow [Hashtbl.fold]'s bucket order:
   equal extended starts are ordered by vreg id (then class name), and
   equal extended cell lifetimes by cell number.  One change follows the
   production allocator: when some instruction needs more registers of the
   failing spillable class than the class has, the allocator fails at once
   instead of spilling. *)

module Regalloc = struct
  exception Pressure of string

  type lin = {
    spans : (int * int) list;
    ranges : (Target.Instr.vreg, int * int) Hashtbl.t;
    def_positions : (Target.Instr.vreg, int list) Hashtbl.t;
  }

  let note lin v point =
    match Hashtbl.find_opt lin.ranges v with
    | None -> Hashtbl.replace lin.ranges v (point, point)
    | Some (lo, hi) -> Hashtbl.replace lin.ranges v (min lo point, max hi point)

  let push tbl v p =
    Hashtbl.replace tbl v (p :: Option.value ~default:[] (Hashtbl.find_opt tbl v))

  let scan_instr lin p (i : Target.Instr.t) =
    let vregs ops = List.concat_map Target.Instr.vregs_of_operand ops in
    List.iter (fun v -> note lin v (2 * p)) (vregs i.uses);
    List.iter
      (fun v ->
        note lin v ((2 * p) + 1);
        push lin.def_positions v p)
      (vregs i.defs);
    List.iter (fun v -> note lin v (2 * p)) (vregs i.operands)

  let linearize items =
    let lin =
      { spans = []; ranges = Hashtbl.create 64; def_positions = Hashtbl.create 64 }
    in
    let spans = Target.Asm.loop_spans (scan_instr lin) items in
    let span (first, last) = (2 * first, (2 * last) + 1) in
    { lin with spans = List.map span spans }

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

  type interval = { vreg : Target.Instr.vreg; raw : int * int; ext : int * int }

  let allocate machine lin =
    let intervals =
      Hashtbl.fold
        (fun v raw acc -> { vreg = v; raw; ext = extend lin.spans raw } :: acc)
        lin.ranges []
      |> List.sort (fun a b ->
             compare
               (fst a.ext, a.vreg.vid, a.vreg.vcls)
               (fst b.ext, b.vreg.vid, b.vreg.vcls))
    in
    let assignment : (Target.Instr.vreg, int) Hashtbl.t = Hashtbl.create 64 in
    let active : (string, (interval * int) list ref) Hashtbl.t = Hashtbl.create 8 in
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
        let lo, _ = iv.ext in
        let expired, live = List.partition (fun (other, _) -> snd other.ext < lo) !a in
        a := live;
        List.iter (fun (_, idx) -> f := idx :: !f) expired;
        match !f with
        | idx :: restf ->
          f := restf;
          a := (iv, idx) :: !a;
          Hashtbl.replace assignment iv.vreg idx;
          place rest
        | [] -> failure := Some (iv, List.map fst !a))
    in
    place intervals;
    match !failure with
    | None -> Ok assignment
    | Some (iv, actives) -> Error (iv, actives)

  let mentions_vreg ops v =
    List.exists (fun op -> List.mem v (Target.Instr.vregs_of_operand op)) ops

  let subst_vreg ~from ~into i =
    Target.Instr.map_operands
      (fun op ->
        match op with
        | Target.Instr.Vreg v when v = from -> Target.Instr.Vreg into
        | _ -> op)
      i

  let spillable machine lin (iv : interval) =
    iv.raw = iv.ext
    && List.mem_assoc iv.vreg.vcls machine.Target.Machine.spills
    &&
    match Hashtbl.find_opt lin.def_positions iv.vreg with
    | Some [ _ ] -> true
    | _ -> false

  let insert_spill ctx ops items victim scratch =
    Target.Asm.map_runs
      (List.concat_map (fun (i : Target.Instr.t) ->
           if mentions_vreg i.defs victim then
             [ Target.Asm.Op i; Target.Asm.Op (ops.Target.Machine.spill_store victim scratch) ]
           else if mentions_vreg i.uses victim || mentions_vreg i.operands victim then
             let nv = Target.Machine.fresh_vreg ctx victim.Target.Instr.vcls in
             [ Target.Asm.Op (ops.Target.Machine.spill_load scratch nv);
               Target.Asm.Op (subst_vreg ~from:victim ~into:nv i) ]
           else [ Target.Asm.Op i ]))
      items

  (* Does some instruction need more registers of the spillable class
     [cls] than it has: more distinct vregs of the class read or named in
     its operands, all live at its use point, or defined? *)
  let hopeless machine items cls =
    List.mem_assoc cls machine.Target.Machine.spills
    &&
    let count =
      (Target.Regfile.find machine.Target.Machine.regfile cls).Target.Regfile.count
    in
    let distinct ops =
      List.length
        (List.sort_uniq compare
           (List.filter
              (fun (v : Target.Instr.vreg) -> v.vcls = cls)
              (List.concat_map Target.Instr.vregs_of_operand ops)))
    in
    let over = ref false in
    Target.Asm.iter_items
      (fun (i : Target.Instr.t) ->
        if distinct (i.uses @ i.operands) > count || distinct i.defs > count
        then over := true)
      items;
    !over

  let run ?ctx machine (asm : Target.Asm.t) =
    let rec attempt items fuel =
      let lin = linearize items in
      match allocate machine lin with
      | Ok assignment ->
        let rewrite op =
          match op with
          | Target.Instr.Vreg v ->
            Target.Instr.Reg { cls = v.vcls; idx = Hashtbl.find assignment v }
          | _ -> op
        in
        Target.Asm.map (Target.Instr.map_operands rewrite) { asm with items }
      | Error (iv, actives) -> (
        let fail () =
          raise
            (Pressure
               (Printf.sprintf "class %s: no free register for %%%s%d (live range %d..%d)"
                  iv.vreg.vcls iv.vreg.vcls iv.vreg.vid (fst iv.ext) (snd iv.ext)))
        in
        match ctx with
        | None -> fail ()
        | Some ctx when fuel > 0 && not (hopeless machine items iv.vreg.vcls) -> (
          let candidates =
            List.filter (spillable machine lin) (iv :: actives)
            |> List.sort (fun a b -> compare (snd b.ext) (snd a.ext))
          in
          match candidates with
          | [] -> fail ()
          | victim :: _ ->
            let ops = List.assoc victim.vreg.vcls machine.Target.Machine.spills in
            let scratch = Target.Machine.fresh_scratch ctx in
            attempt (insert_spill ctx ops items victim.vreg scratch) (fuel - 1))
        | Some _ -> fail ())
    in
    attempt asm.Target.Asm.items (16 + Target.Asm.instr_count asm)
end

module Scratchpack = struct
  let is_scratch base = String.length base >= 2 && base.[0] = '$' && base.[1] = 's'

  let occurrences items =
    let pos = ref 0 in
    let ranges : (string, int * int) Hashtbl.t = Hashtbl.create 16 in
    let note base =
      if is_scratch base then
        match Hashtbl.find_opt ranges base with
        | None -> Hashtbl.replace ranges base (!pos, !pos)
        | Some (lo, hi) -> Hashtbl.replace ranges base (min lo !pos, max hi !pos)
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

  let number base = int_of_string (String.sub base 2 (String.length base - 2))

  let run (asm : Target.Asm.t) =
    let ranges, spans = occurrences asm.Target.Asm.items in
    let intervals =
      Hashtbl.fold (fun base raw acc -> (base, Regalloc.extend spans raw) :: acc) ranges []
      |> List.sort (fun (a, ra) (b, rb) -> compare (ra, number a) (rb, number b))
    in
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
      | Target.Instr.Ind (ar, u, over) -> Target.Instr.Ind (ar, u, Option.map rename over)
      | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _ -> op
    in
    let asm = Target.Asm.map (Target.Instr.map_operands rewrite) asm in
    let decls = List.init !next (fun i -> (Printf.sprintf "$s%d" i, 1)) in
    (asm, decls)
end

module Listing = struct
  let mref (r : Ir.Mref.t) =
    match r.index with
    | Ir.Mref.Direct -> r.base
    | Ir.Mref.Elem k -> Printf.sprintf "%s[%d]" r.base k
    | Ir.Mref.Induct { ivar; offset = 0; step = 1 } -> Printf.sprintf "%s[%s]" r.base ivar
    | Ir.Mref.Induct { ivar; offset; step = 1 } when offset > 0 ->
      Printf.sprintf "%s[%s+%d]" r.base ivar offset
    | Ir.Mref.Induct { ivar; offset; step = 1 } -> Printf.sprintf "%s[%s%d]" r.base ivar offset
    | Ir.Mref.Induct { ivar; offset; step = _ } -> Printf.sprintf "%s[%d-%s]" r.base offset ivar

  let rec operand = function
    | Target.Instr.Reg r -> Printf.sprintf "%s%d" r.cls r.idx
    | Target.Instr.Vreg v -> Printf.sprintf "%%%s%d" v.vcls v.vid
    | Target.Instr.Imm k -> Printf.sprintf "#%d" k
    | Target.Instr.Adr r -> "&" ^ mref r
    | Target.Instr.Dir r -> mref r
    | Target.Instr.Ind (inner, u, _) ->
      let suffix =
        match u with
        | Target.Instr.No_update -> ""
        | Target.Instr.Post_inc -> "+"
        | Target.Instr.Post_dec -> "-"
      in
      "*" ^ operand inner ^ suffix

  let instr (i : Target.Instr.t) =
    match i.operands with
    | [] -> i.opcode
    | ops -> Printf.sprintf "%-6s %s" i.opcode (String.concat ", " (List.map operand ops))

  let pp ppf (t : Target.Asm.t) =
    let rec go indent = function
      | Target.Asm.Op i -> Format.fprintf ppf "%s%s@." indent (instr i)
      | Target.Asm.Par is ->
        Format.fprintf ppf "%s%s@." indent (String.concat "  ||  " (List.map instr is))
      | Target.Asm.Loop l ->
        Format.fprintf ppf "%s; loop x%d@." indent l.count;
        List.iter (go (indent ^ "  ")) l.body;
        Format.fprintf ppf "%s; end loop@." indent
    in
    Format.fprintf ppf "; %s@." t.name;
    List.iter (go "") t.items
end
