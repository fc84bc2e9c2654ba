exception Pressure of string

(* Lifetimes, definition counts and the assignment live in per-class
   tables indexed by vreg id: [Machine.ctx] mints every id from one
   counter, so the ids of a program are dense.  Each instruction gets a
   position; lifetime endpoints use 2*pos for uses and 2*pos + 1 for defs,
   so a def can reuse the register an operand releases at the same
   instruction. *)

type cls = {
  name : string;
  count : int;  (* registers in the class; -1 when the machine has none *)
  spill : Target.Machine.spill_ops option;
  mutable first : int array;  (* lifetime start by vid; max_int if absent *)
  mutable last : int array;  (* lifetime end by vid; -1 if absent *)
  mutable defs : int array;  (* definitions by vid *)
  mutable reg : int array;  (* assigned register by vid *)
  mutable free : int list;
  mutable active : interval list;  (* the most recently placed first *)
  mutable crowded : bool option;
      (* whether some instruction needs more registers than [count]; found
         at the class's first failure, and kept: spills never change it *)
}

(* A lifetime [lo, hi] and its extension [elo, ehi] over the loops it
   straddles. *)
and interval = {
  cls : cls;
  vid : int;
  lo : int;
  hi : int;
  elo : int;
  ehi : int;
}

(* The classes of one run: the machine's, then any other a vreg names. *)
type tables = { mutable classes : cls list; mutable ids : int }

let new_class t name ~count ~spill =
  let c =
    {
      name;
      count;
      spill;
      first = Array.make t.ids max_int;
      last = Array.make t.ids (-1);
      defs = Array.make t.ids 0;
      reg = Array.make t.ids 0;
      free = [];
      active = [];
      crowded = None;
    }
  in
  t.classes <- t.classes @ [ c ];
  c

let tables machine ids =
  let t = { classes = []; ids } in
  List.iter
    (fun (c : Target.Regfile.cls) ->
      ignore
        (new_class t c.cls_name ~count:c.count
           ~spill:(List.assoc_opt c.cls_name machine.Target.Machine.spills)))
    machine.Target.Machine.regfile.Target.Regfile.classes;
  t

(* Empty every class's tables for a program whose ids are below [ids];
   a register is always set before it is read. *)
let reset t ids =
  List.iter
    (fun c ->
      if ids <= Array.length c.first then begin
        Array.fill c.first 0 t.ids max_int;
        Array.fill c.last 0 t.ids (-1);
        Array.fill c.defs 0 t.ids 0
      end
      else begin
        let room = Int.max ids (2 * Array.length c.first) in
        c.first <- Array.make room max_int;
        c.last <- Array.make room (-1);
        c.defs <- Array.make room 0;
        c.reg <- Array.make room 0
      end)
    t.classes;
  t.ids <- ids

let class_of t name =
  let rec find = function
    | c :: rest -> if String.equal c.name name then c else find rest
    | [] -> new_class t name ~count:(-1) ~spill:None
  in
  find t.classes

let rec max_id acc = function
  | Target.Instr.Vreg v ->
    if v.vid < 0 then invalid_arg "Regalloc: negative vreg id";
    Int.max acc v.vid
  | Target.Instr.Ind (inner, _, _) -> max_id acc inner
  | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
  | Target.Instr.Dir _ ->
    acc

let id_bound items =
  let m = ref (-1) in
  Target.Asm.iter_items
    (fun (i : Target.Instr.t) ->
      m :=
        List.fold_left max_id
          (List.fold_left max_id (List.fold_left max_id !m i.uses) i.defs)
          i.operands)
    items;
  !m + 1

let rec note t point ~def = function
  | Target.Instr.Vreg v ->
    let c = class_of t v.vcls and id = v.vid in
    if point < c.first.(id) then c.first.(id) <- point;
    if point > c.last.(id) then c.last.(id) <- point;
    if def then c.defs.(id) <- c.defs.(id) + 1
  | Target.Instr.Ind (inner, _, _) -> note t point ~def inner
  | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
  | Target.Instr.Dir _ ->
    ()

(* Fill the tables; returns the number of endpoints and the loop spans,
   each from the use point of its first instruction to the def point of
   its last.  Address registers inside printable operands that appear in
   neither defs nor uses still occupy their register: they count as
   uses. *)
let linearize t items =
  let points = ref 0 in
  let rec note_all point ~def = function
    | [] -> ()
    | o :: rest ->
      note t point ~def o;
      note_all point ~def rest
  in
  let scan p (i : Target.Instr.t) =
    points := (2 * p) + 2;
    note_all (2 * p) ~def:false i.uses;
    note_all ((2 * p) + 1) ~def:true i.defs;
    note_all (2 * p) ~def:false i.operands
  in
  let spans = Target.Asm.loop_spans scan items in
  (!points, List.map (fun (first, last) -> (2 * first, (2 * last) + 1)) spans)

(* Extend a lifetime over every loop it straddles, to fixpoint. *)
let extend spans (lo, hi) =
  let rec pass lo hi = function
    | [] -> (lo, hi)
    | (s, e) :: rest ->
      if lo <= e && hi >= s && not (lo >= s && hi <= e) then
        pass (Int.min lo s) (Int.max hi e) rest
      else pass lo hi rest
  in
  let rec fix lo hi =
    let lo', hi' = pass lo hi spans in
    if lo' = lo && hi' = hi then (lo, hi) else fix lo' hi'
  in
  fix lo hi

(* Every lifetime, ordered by (extended start, vid, class name): bucketed
   by extended start, each bucket filled in descending (vid, name) order.
   [points] bounds the lifetime endpoints. *)
let intervals t spans ~points =
  let buckets = Array.make points [] in
  let classes = List.sort (fun a b -> String.compare b.name a.name) t.classes in
  for vid = t.ids - 1 downto 0 do
    List.iter
      (fun c ->
        let hi = c.last.(vid) in
        if hi >= 0 then begin
          let lo = c.first.(vid) in
          let elo, ehi =
            match spans with [] -> (lo, hi) | _ :: _ -> extend spans (lo, hi)
          in
          buckets.(elo) <- { cls = c; vid; lo; hi; elo; ehi } :: buckets.(elo)
        end)
      classes
  done;
  let ordered = ref [] in
  for p = points - 1 downto 0 do
    ordered := buckets.(p) @ !ordered
  done;
  !ordered

(* Linear scan.  Returns the failing interval together with the
   same-class intervals live at its start (spill candidates), or [None]
   when every interval has a register. *)
let allocate t ivs =
  List.iter
    (fun c ->
      c.free <- List.init (Int.max c.count 0) Fun.id;
      c.active <- [])
    t.classes;
  let rec place = function
    | [] -> None
    | iv :: rest ->
      let c = iv.cls in
      if c.count < 0 then
        invalid_arg ("Regalloc: unknown register class " ^ c.name);
      let expired o = o.ehi < iv.elo in
      if List.exists expired c.active then begin
        let gone, live = List.partition expired c.active in
        c.active <- live;
        List.iter (fun o -> c.free <- c.reg.(o.vid) :: c.free) gone
      end;
      match c.free with
      | r :: free ->
        c.free <- free;
        c.active <- iv :: c.active;
        c.reg.(iv.vid) <- r;
        place rest
      | [] -> Some (iv, c.active)
  in
  place ivs

(* ---- Spilling ------------------------------------------------------------- *)

let rec names_vreg name vid = function
  | Target.Instr.Vreg v -> v.vid = vid && String.equal v.vcls name
  | Target.Instr.Ind (inner, _, _) -> names_vreg name vid inner
  | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
  | Target.Instr.Dir _ ->
    false

(* A spill candidate: single definition, the defining instruction does not
   read it, its lifetime does not straddle a loop boundary, and its class
   has spill instructions. *)
let spillable iv =
  iv.lo = iv.elo && iv.hi = iv.ehi
  && Option.is_some iv.cls.spill
  && iv.cls.defs.(iv.vid) = 1

(* Rewrite: store after the definition, reload into a fresh register before
   every use.  Instructions of [Par] words are left as they are, and the
   unchanged tail of a list is shared. *)
let insert_spill ctx (ops : Target.Machine.spill_ops) items (victim : interval)
    scratch =
  let name = victim.cls.name and vid = victim.vid in
  let mentions = List.exists (names_vreg name vid) in
  let subst into = function
    | Target.Instr.Vreg v when v.vid = vid && String.equal v.vcls name ->
      Target.Instr.Vreg into
    | op -> op
  in
  let rec go items =
    match items with
    | [] -> items
    | (Target.Asm.Op i as item) :: rest when mentions i.defs ->
      let store = ops.spill_store { Target.Instr.vcls = name; vid } scratch in
      item :: Target.Asm.Op store :: go rest
    | Target.Asm.Op i :: rest when mentions i.uses || mentions i.operands ->
      let into = Target.Machine.fresh_vreg ctx name in
      let load = Target.Asm.Op (ops.spill_load scratch into) in
      let i = Target.Asm.Op (Target.Instr.map_operands (subst into) i) in
      load :: i :: go rest
    | ((Target.Asm.Op _ | Target.Asm.Par _) as item) :: rest ->
      let rest' = go rest in
      if rest' == rest then items else item :: rest'
    | (Target.Asm.Loop l as item) :: rest ->
      let body = go l.body in
      let rest' = go rest in
      if body == l.body && rest' == rest then items
      else (if body == l.body then item else Target.Asm.Loop { l with body })
           :: rest'
  in
  go items

(* Does some instruction need more registers of class [c] than it has?
   Every vreg an instruction reads or names in its operands is live at its
   use point, and every vreg it defines at its def point.  A spill renames
   a vreg to one reload at each instruction or keeps it, so no spill
   lowers either count: a program with such an instruction cannot be
   allocated.  [seen] holds the distinct ids met at the current point. *)
let oversubscribed c items =
  let seen = Array.make c.count 0 and n = ref 0 and over = ref false in
  let rec known vid k = k < !n && (seen.(k) = vid || known vid (k + 1)) in
  let rec note = function
    | Target.Instr.Vreg v ->
      if String.equal v.vcls c.name && not (known v.vid 0) then
        if !n = c.count then over := true
        else begin
          seen.(!n) <- v.vid;
          incr n
        end
    | Target.Instr.Ind (inner, _, _) -> note inner
    | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
    | Target.Instr.Dir _ ->
      ()
  in
  Target.Asm.iter_items
    (fun (i : Target.Instr.t) ->
      if not !over then begin
        n := 0;
        List.iter note i.uses;
        List.iter note i.operands;
        n := 0;
        List.iter note i.defs
      end)
    items;
  !over

let run ?ctx machine (asm : Target.Asm.t) =
  let t = tables machine (id_bound asm.Target.Asm.items) in
  let rec attempt items fuel =
    Ir.Deadline.check ();
    let points, spans = linearize t items in
    match allocate t (intervals t spans ~points) with
    | None ->
      let rewrite op =
        match op with
        | Target.Instr.Vreg v ->
          let idx = (class_of t v.vcls).reg.(v.vid) in
          Target.Instr.Reg { cls = v.vcls; idx }
        | Target.Instr.Reg _ | Target.Instr.Imm _ | Target.Instr.Adr _
        | Target.Instr.Dir _ | Target.Instr.Ind _ ->
          op
      in
      Target.Asm.map (Target.Instr.map_operands rewrite) { asm with items }
    | Some (iv, actives) -> (
      let fail () =
        raise
          (Pressure
             (Printf.sprintf
                "class %s: no free register for %%%s%d (live range %d..%d)"
                iv.cls.name iv.cls.name iv.vid iv.elo iv.ehi))
      in
      let hopeless () =
        Option.is_some iv.cls.spill
        &&
        match iv.cls.crowded with
        | Some crowded -> crowded
        | None ->
          let crowded = oversubscribed iv.cls items in
          iv.cls.crowded <- Some crowded;
          crowded
      in
      match ctx with
      | Some ctx when fuel > 0 && not (hopeless ()) -> (
        (* Spill the candidate whose lifetime reaches furthest. *)
        let candidates =
          List.filter spillable (iv :: actives)
          |> List.stable_sort (fun a b -> Int.compare b.ehi a.ehi)
        in
        match candidates with
        | [] -> fail ()
        | victim :: _ ->
          let scratch = Target.Machine.fresh_scratch ctx in
          let items =
            insert_spill ctx (Option.get victim.cls.spill) items victim scratch
          in
          reset t (Int.max t.ids ctx.Target.Machine.next_vreg);
          attempt items (fuel - 1))
      | Some _ | None -> fail ())
  in
  (* Each round inserts one spill, so allow one round per instruction (with
     some headroom for tiny programs); the bound only guards against a
     non-converging rewrite loop. *)
  attempt asm.Target.Asm.items (16 + Target.Asm.instr_count asm)

let spills_inserted ~before ~after =
  Target.Asm.instr_count after - Target.Asm.instr_count before
