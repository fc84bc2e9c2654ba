(* Tests for the back-end optimization passes: AGU lowering, register
   allocation, mode minimization, peephole, compaction, memory banks, and
   offset assignment. *)

let vreg cls id = Target.Instr.Vreg { Target.Instr.vcls = cls; vid = id }
let dir name = Target.Instr.Dir (Ir.Mref.scalar name)
let op i = Target.Asm.Op i

let opcodes items =
  let out = ref [] in
  Target.Asm.iter_items (fun i -> out := i.Target.Instr.opcode :: !out) items;
  List.rev !out

(* ---- Agu ----------------------------------------------------------------- *)

let induct ?(offset = 0) ?(step = 1) base =
  Target.Instr.Dir (Ir.Mref.induct ~offset ~step base ~ivar:"i")

let load_instr operand =
  Target.Instr.make "LAC" ~operands:[ operand ] ~defs:[ vreg "acc" 99 ]
    ~uses:[ operand ]

let test_agu_streams () =
  let body = [ op (load_instr (induct "a")); op (load_instr (induct "b")) ] in
  let ctx = Target.Machine.create_ctx () in
  let agu = Option.get Target.Tic25.machine.Target.Machine.agu in
  let inits, body', n = Opt.Agu.lower_loop agu ctx "i" body in
  Alcotest.(check int) "two streams" 2 n;
  Alcotest.(check int) "two AR loads" 2 (List.length inits);
  (* Every rewritten access is indirect with a post-increment (single
     occurrence per stream). *)
  List.iter
    (fun item ->
      match item with
      | Target.Asm.Op i -> (
        match i.Target.Instr.operands with
        | [ Target.Instr.Ind (_, Target.Instr.Post_inc, Some _) ] -> ()
        | _ -> Alcotest.fail "expected post-increment indirect operand")
      | _ -> Alcotest.fail "unexpected item")
    body'

let test_agu_shared_stream_single_increment () =
  (* Two accesses to the same stream: only the last one increments. *)
  let body = [ op (load_instr (induct "a")); op (load_instr (induct "a")) ] in
  let ctx = Target.Machine.create_ctx () in
  let agu = Option.get Target.Tic25.machine.Target.Machine.agu in
  let _, body', n = Opt.Agu.lower_loop agu ctx "i" body in
  Alcotest.(check int) "one stream" 1 n;
  let updates =
    List.map
      (fun item ->
        match item with
        | Target.Asm.Op
            { Target.Instr.operands = [ Target.Instr.Ind (_, u, _) ]; _ } ->
          u
        | _ -> Alcotest.fail "unexpected")
      body'
  in
  Alcotest.(check bool) "first no update" true
    (List.nth updates 0 = Target.Instr.No_update);
  Alcotest.(check bool) "last post-inc" true
    (List.nth updates 1 = Target.Instr.Post_inc)

let test_agu_descending () =
  let body = [ op (load_instr (induct ~offset:15 ~step:(-1) "x")) ] in
  let ctx = Target.Machine.create_ctx () in
  let agu = Option.get Target.Tic25.machine.Target.Machine.agu in
  let _, body', _ = Opt.Agu.lower_loop agu ctx "i" body in
  match body' with
  | [ Target.Asm.Op
        { Target.Instr.operands = [ Target.Instr.Ind (_, Target.Instr.Post_dec, _) ]; _ } ] ->
    ()
  | _ -> Alcotest.fail "expected post-decrement"

let test_agu_too_many_streams () =
  let body =
    List.init 9 (fun k -> op (load_instr (induct (Printf.sprintf "v%d" k))))
  in
  let ctx = Target.Machine.create_ctx () in
  let agu = Option.get Target.Tic25.machine.Target.Machine.agu in
  match Opt.Agu.lower_loop agu ctx "i" body with
  | _ -> Alcotest.fail "expected Too_many_streams"
  | exception Opt.Agu.Too_many_streams _ -> ()

(* ---- Regalloc -------------------------------------------------------------- *)

let test_regalloc_sequential_reuse () =
  (* Two non-overlapping acc values map to the single accumulator. *)
  let i1 = Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ] in
  let i2 =
    Target.Instr.make "SACL" ~operands:[ dir "x" ] ~defs:[ dir "x" ]
      ~uses:[ vreg "acc" 0 ]
  in
  let i3 = Target.Instr.make "ZAC" ~defs:[ vreg "acc" 1 ] in
  let i4 =
    Target.Instr.make "SACL" ~operands:[ dir "y" ] ~defs:[ dir "y" ]
      ~uses:[ vreg "acc" 1 ]
  in
  let asm = Target.Asm.make ~name:"t" [ op i1; op i2; op i3; op i4 ] in
  let allocated = Opt.Regalloc.run Target.Tic25.machine asm in
  Target.Asm.iter
    (fun i ->
      List.iter
        (fun o ->
          match o with
          | Target.Instr.Vreg _ -> Alcotest.fail "vreg survived allocation"
          | _ -> ())
        (i.Target.Instr.defs @ i.Target.Instr.uses))
    allocated

let test_regalloc_pressure () =
  (* Two simultaneously live accumulator values cannot fit tic25. *)
  let i1 = Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ] in
  let i2 = Target.Instr.make "ZAC" ~defs:[ vreg "acc" 1 ] in
  let i3 =
    Target.Instr.make "USE" ~uses:[ vreg "acc" 0; vreg "acc" 1 ]
      ~defs:[ vreg "acc" 2 ]
  in
  let asm = Target.Asm.make ~name:"t" [ op i1; op i2; op i3 ] in
  match Opt.Regalloc.run Target.Tic25.machine asm with
  | _ -> Alcotest.fail "expected pressure"
  | exception Opt.Regalloc.Pressure _ -> ()

let test_regalloc_loop_extension () =
  (* A stream AR is initialized before the loop and read at the TOP of the
     body; another AR is defined later in the body. Without extending the
     stream AR's lifetime over the whole loop, the later AR could reuse its
     register — wrong, because the stream AR is needed again on the next
     iteration. *)
  let stream = vreg "ar" 100 in
  let later = vreg "ar" 101 in
  let init =
    Target.Instr.make "LARK" ~operands:[ stream; Target.Instr.Imm 0 ]
      ~defs:[ stream ] ~funit:"ctl"
  in
  let use_stream =
    Target.Instr.make "LAC"
      ~operands:[ Target.Instr.Ind (stream, Target.Instr.Post_inc, None) ]
      ~defs:[ vreg "acc" 0 ]
      ~uses:[ Target.Instr.Ind (stream, Target.Instr.Post_inc, None) ]
  in
  let def_later =
    Target.Instr.make "LARK" ~operands:[ later; Target.Instr.Imm 9 ]
      ~defs:[ later ] ~funit:"ctl"
  in
  let use_later =
    Target.Instr.make "SACL"
      ~operands:[ Target.Instr.Ind (later, Target.Instr.No_update, None) ]
      ~defs:[ Target.Instr.Ind (later, Target.Instr.No_update, None) ]
      ~uses:[ vreg "acc" 0 ]
  in
  let asm =
    Target.Asm.make ~name:"t"
      [
        op init;
        Target.Asm.Loop
          {
            ivar = None;
            count = 4;
            body = [ op use_stream; op def_later; op use_later ];
          };
      ]
  in
  let allocated = Opt.Regalloc.run Target.Tic25.machine asm in
  let ar_defs = ref [] in
  Target.Asm.iter
    (fun i ->
      if i.Target.Instr.opcode = "LARK" then
        List.iter
          (fun o ->
            match o with
            | Target.Instr.Reg r -> ar_defs := r.Target.Instr.idx :: !ar_defs
            | _ -> ())
          i.Target.Instr.defs)
    allocated;
  match List.sort_uniq compare !ar_defs with
  | [ _; _ ] -> ()
  | regs ->
    Alcotest.failf "expected 2 distinct ARs, got %d" (List.length regs)

(* ---- Modeopt --------------------------------------------------------------- *)

let sat_add = Target.Instr.make "ADD" ~mode_req:("ovm", 1)
let plain_add = Target.Instr.make "ADD" ~mode_req:("ovm", 0)

let test_modeopt_lazy () =
  let items = [ op sat_add; op sat_add; op plain_add; op sat_add ] in
  let out = Opt.Modeopt.run ~strategy:Opt.Modeopt.Lazy Target.Tic25.machine items in
  (* SOVM, ADD, ADD, ROVM, ADD, SOVM, ADD: 3 changes. *)
  Alcotest.(check int) "changes" 3 (Opt.Modeopt.changes_inserted out);
  Alcotest.(check (result unit string)) "verified" (Ok ())
    (Opt.Modeopt.verify Target.Tic25.machine out)

let test_modeopt_naive () =
  let items = [ op sat_add; op sat_add; op plain_add ] in
  let out = Opt.Modeopt.run ~strategy:Opt.Modeopt.Naive Target.Tic25.machine items in
  Alcotest.(check int) "one change per requiring instr" 3
    (Opt.Modeopt.changes_inserted out);
  Alcotest.(check (result unit string)) "verified" (Ok ())
    (Opt.Modeopt.verify Target.Tic25.machine out)

let test_modeopt_initial_state () =
  (* The reset value of ovm is 0: plain adds need no change at all. *)
  let items = [ op plain_add; op plain_add ] in
  let out = Opt.Modeopt.run ~strategy:Opt.Modeopt.Lazy Target.Tic25.machine items in
  Alcotest.(check int) "no changes" 0 (Opt.Modeopt.changes_inserted out)

let test_modeopt_loop_fixpoint () =
  (* A loop whose body needs ovm=1 throughout: one change before the loop
     would suffice, but correctness requires the body to be verifiable from
     an unknown entry unless the entry state is a fixpoint. Lazy achieves a
     single change inside or before the loop, and verification passes. *)
  let items =
    [
      op plain_add;
      Target.Asm.Loop { ivar = None; count = 4; body = [ op sat_add; op sat_add ] };
    ]
  in
  let out = Opt.Modeopt.run ~strategy:Opt.Modeopt.Lazy Target.Tic25.machine items in
  Alcotest.(check (result unit string)) "verified" (Ok ())
    (Opt.Modeopt.verify Target.Tic25.machine out);
  Alcotest.(check bool) "at most 2 changes" true
    (Opt.Modeopt.changes_inserted out <= 2)

let test_modeopt_verify_catches () =
  let items = [ op sat_add ] in
  match Opt.Modeopt.verify Target.Tic25.machine items with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "unsatisfied mode requirement not caught"

(* A loop of count 0 never runs, so a mode it sets does not hold after
   it: the saturating add finds ovm=0 on both engines, and verify says
   so. *)
let test_modeopt_dead_loop () =
  let sovm = Target.Tic25.machine.Target.Machine.mode_change "ovm" 1 in
  let dead = Target.Asm.Loop { ivar = None; count = 0; body = [ op sovm ] } in
  let verify items = Opt.Modeopt.verify Target.Tic25.machine items in
  Alcotest.(check (result unit string))
    "after a dead loop" (Error "ADD requires ovm=1 but ovm=0 holds")
    (verify [ dead; op sat_add ]);
  let layout = Target.Layout.make ~banks:[ "data" ] [] in
  List.iter
    (fun engine ->
      Alcotest.check_raises "a run raises"
        (Sim.Mode_violation "ADD requires ovm=1, machine has ovm=0")
        (fun () ->
          ignore
            (Sim.run ~engine Target.Tic25.machine ~layout ~inputs:[]
               (Target.Asm.make ~name:"dead" [ dead; op sat_add ]))))
    [ Sim.Interp; Sim.Compiled ];
  Alcotest.(check (result unit string))
    "reset value after a dead loop" (Ok ())
    (verify [ dead; op plain_add ])

(* ---- Peephole --------------------------------------------------------------- *)

let test_peephole_forwarding () =
  (* SACL x; LAC x -> the load disappears, its uses renamed. *)
  let items =
    [
      op (Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "x" ] ~defs:[ dir "x" ]
           ~uses:[ vreg "acc" 0 ]);
      op
        (Target.Instr.make "LAC" ~operands:[ dir "x" ] ~defs:[ vreg "acc" 1 ]
           ~uses:[ dir "x" ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "y" ] ~defs:[ dir "y" ]
           ~uses:[ vreg "acc" 1 ]);
    ]
  in
  let out = Opt.Peephole.run items in
  Alcotest.(check (list string)) "load removed" [ "ZAC"; "SACL"; "SACL" ]
    (opcodes out)

let test_peephole_forwarding_chain () =
  (* Two forwards in one block: the second load's register is renamed to
     the register the first forward renamed its store's operand to. *)
  let store name v =
    op
      (Target.Instr.make "SACL" ~operands:[ dir name ] ~defs:[ dir name ]
         ~uses:[ vreg "acc" v ])
  and load name v =
    op
      (Target.Instr.make "LAC" ~operands:[ dir name ] ~defs:[ vreg "acc" v ]
         ~uses:[ dir name ])
  in
  let items =
    [
      op (Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ]);
      store "x" 0; load "x" 1; store "y" 1; load "y" 2; store "z" 2;
    ]
  in
  let out = Opt.Peephole.run items in
  Alcotest.(check (list string)) "both loads removed"
    [ "ZAC"; "SACL"; "SACL"; "SACL" ] (opcodes out);
  Target.Asm.iter_items
    (fun i ->
      if i.Target.Instr.opcode = "SACL" then
        Alcotest.(check bool) "stores read acc0" true
          (i.Target.Instr.uses = [ vreg "acc" 0 ]))
    out

let test_peephole_forwarding_blocked_by_redef () =
  (* An intervening accumulator redefinition blocks forwarding. *)
  let items =
    [
      op (Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "x" ] ~defs:[ dir "x" ]
           ~uses:[ vreg "acc" 0 ]);
      op (Target.Instr.make "LACK" ~operands:[ Target.Instr.Imm 5 ]
            ~defs:[ vreg "acc" 1 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "z" ] ~defs:[ dir "z" ]
           ~uses:[ vreg "acc" 1 ]);
      op
        (Target.Instr.make "LAC" ~operands:[ dir "x" ] ~defs:[ vreg "acc" 2 ]
           ~uses:[ dir "x" ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "y" ] ~defs:[ dir "y" ]
           ~uses:[ vreg "acc" 2 ]);
    ]
  in
  let out = Opt.Peephole.run items in
  Alcotest.(check int) "nothing removed" 6 (List.length (opcodes out))

let test_peephole_dead_scratch () =
  (* A store to a never-read scratch cell dies, then its producer dies. *)
  let items =
    [
      op (Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "$t0" ] ~defs:[ dir "$t0" ]
           ~uses:[ vreg "acc" 0 ]);
      op (Target.Instr.make "LACK" ~operands:[ Target.Instr.Imm 1 ]
            ~defs:[ vreg "acc" 1 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "y" ] ~defs:[ dir "y" ]
           ~uses:[ vreg "acc" 1 ]);
    ]
  in
  let out = Opt.Peephole.run items in
  Alcotest.(check (list string)) "dead store and producer removed"
    [ "LACK"; "SACL" ] (opcodes out)

let test_peephole_keeps_named_store () =
  (* Stores to program variables are never dead (observable). *)
  let items =
    [
      op (Target.Instr.make "ZAC" ~defs:[ vreg "acc" 0 ]);
      op
        (Target.Instr.make "SACL" ~operands:[ dir "result" ]
           ~defs:[ dir "result" ] ~uses:[ vreg "acc" 0 ]);
    ]
  in
  let out = Opt.Peephole.run items in
  Alcotest.(check int) "kept" 2 (List.length (opcodes out))

(* ---- Compaction -------------------------------------------------------------- *)

let move_ name cls id =
  Target.Instr.make "MOVE"
    ~operands:[ dir name; Target.Instr.Reg { Target.Instr.cls; idx = id } ]
    ~defs:[ Target.Instr.Reg { Target.Instr.cls; idx = id } ]
    ~uses:[ dir name ] ~funit:"move"

let test_depends () =
  let a = move_ "x" "xy" 0 in
  let b =
    Target.Instr.make "ADD"
      ~operands:
        [ Target.Instr.Reg { Target.Instr.cls = "xy"; idx = 0 };
          Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~defs:[ Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~uses:
        [ Target.Instr.Reg { Target.Instr.cls = "xy"; idx = 0 };
          Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
  in
  let c = move_ "y" "xy" 1 in
  Alcotest.(check bool) "raw dep" true (Opt.Compaction.depends a b);
  Alcotest.(check bool) "independent" false (Opt.Compaction.depends a c);
  (* Mode interactions are dependences. *)
  let ssm = Target.Instr.make "SSM" ~mode_set:("sm", 1) ~funit:"ctl" in
  let sat = Target.Instr.make "ADD" ~mode_req:("sm", 1) in
  Alcotest.(check bool) "mode dep" true (Opt.Compaction.depends ssm sat)

let test_compaction_packs_independent_moves () =
  (* dsp56: an ALU op plus independent moves pack; dependent ones do not. *)
  let m1 = move_ "x" "xy" 0 in
  let m2 = move_ "y" "xy" 1 in
  let alu =
    Target.Instr.make "NEG"
      ~operands:[ Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~defs:[ Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~uses:[ Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
  in
  let layout =
    Target.Layout.make ~banks:[ "x"; "y" ] [ ("x", 1, "x"); ("y", 1, "y") ]
  in
  let asm = Target.Asm.make ~name:"t" [ op alu; op m1; op m2 ] in
  let packed =
    Opt.Compaction.run
      ~word_ok:(fun instrs ->
        (* distinct banks for the word's memory accesses *)
        let banks =
          List.concat_map
            (fun (i : Target.Instr.t) ->
              List.filter_map
                (function
                  | Target.Instr.Dir r ->
                    Some (Target.Layout.bank_of_ref layout r)
                  | _ -> None)
                i.operands)
            instrs
        in
        List.length (List.sort_uniq compare banks) = List.length banks)
      Target.Dsp56.machine asm
  in
  Alcotest.(check int) "one word" 1 (Target.Asm.words packed);
  match packed.Target.Asm.items with
  | [ Target.Asm.Par [ _; _; _ ] ] -> ()
  | _ -> Alcotest.fail "expected a 3-wide parallel word"

let test_compaction_respects_deps () =
  let m1 = move_ "x" "xy" 0 in
  let use =
    Target.Instr.make "ADD"
      ~operands:
        [ Target.Instr.Reg { Target.Instr.cls = "xy"; idx = 0 };
          Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~defs:[ Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
      ~uses:
        [ Target.Instr.Reg { Target.Instr.cls = "xy"; idx = 0 };
          Target.Instr.Reg { Target.Instr.cls = "acc"; idx = 0 } ]
  in
  let asm = Target.Asm.make ~name:"t" [ op m1; op use ] in
  let packed = Opt.Compaction.run Target.Dsp56.machine asm in
  Alcotest.(check int) "two words" 2 (Target.Asm.words packed)

let test_compaction_ctl_never_packs () =
  let m1 = move_ "x" "xy" 0 in
  let do_ = Target.Instr.make "DO" ~operands:[ Target.Instr.Imm 3 ] ~funit:"ctl" in
  let asm = Target.Asm.make ~name:"t" [ op do_; op m1 ] in
  let packed = Opt.Compaction.run Target.Dsp56.machine asm in
  match packed.Target.Asm.items with
  | [ Target.Asm.Op _; Target.Asm.Op _ ] -> ()
  | _ -> Alcotest.fail "control instruction packed"

let test_compaction_sequential_machine_identity () =
  let m1 = move_ "x" "xy" 0 in
  let asm = Target.Asm.make ~name:"t" [ op m1; op m1 ] in
  let packed = Opt.Compaction.run Target.Tic25.machine asm in
  Alcotest.(check int) "unchanged" 2 (Target.Asm.instr_count packed)

(* The greedy packer as it was before dependence edges and ready counts:
   for every candidate, [ready] rescans every earlier instruction with
   {!Opt.Compaction.depends}.  Cubic, and kept as the reference the
   packer must agree with word for word. *)
let reference_pack slots word_ok (instrs : Target.Instr.t list) =
  let depends = Opt.Compaction.depends in
  let arr = Array.of_list instrs in
  let n = Array.length arr in
  let scheduled = Array.make n false in
  let words = ref [] in
  let ready k =
    let rec ok l =
      l >= k || ((scheduled.(l) || not (depends arr.(l) arr.(k))) && ok (l + 1))
    in
    ok 0
  in
  let capacity funit =
    match List.assoc_opt funit slots with Some c -> c | None -> 0
  in
  let packable (i : Target.Instr.t) = capacity i.funit > 0 && i.words = 1 in
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
    let opener =
      let rec find k =
        if k >= n then None
        else if (not scheduled.(k)) && ready k then Some k
        else find (k + 1)
      in
      find 0
    in
    (match opener with
    | None -> assert false
    | Some k0 ->
      take k0;
      if packable arr.(k0) then
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

(* Random blocks: register, direct, indirect and post-modifying operands
   over a few registers and memory bases, mode reads and writes, units
   with and without a slot, and two-word instructions. *)
let gen_block =
  let open QCheck.Gen in
  let base = oneofl [ "a"; "b"; "c"; "d" ] in
  let reg cls = map (fun idx -> Target.Instr.Reg { Target.Instr.cls; idx }) (int_bound 2) in
  let operand =
    frequency
      [
        (3, reg "acc");
        (3, reg "xy");
        (3, map (fun b -> dir b) base);
        ( 3,
          map3
            (fun ar u over ->
              Target.Instr.Ind (ar, u, Option.map Ir.Mref.scalar over))
            (reg "ar")
            (oneofl Target.Instr.[ No_update; Post_inc; Post_dec ])
            (opt base) );
        (1, map (fun k -> Target.Instr.Imm k) (int_bound 9));
      ]
  in
  let mode = opt (map (fun v -> ("sm", v)) (int_bound 1)) in
  let instr =
    map
      (fun ((defs, uses), (funit, words), (mode_req, mode_set)) ->
        Target.Instr.make "OP" ~operands:(uses @ defs) ~defs ~uses ~funit
          ~words ?mode_req ?mode_set)
      (triple
         (pair (list_size (int_bound 1) operand) (list_size (int_bound 2) operand))
         (pair
            (oneofl [ "alu"; "move"; "move"; "ctl"; "agu" ])
            (frequency [ (5, return 1); (1, return 2) ]))
         (pair mode (frequency [ (4, return None); (1, mode) ])))
  in
  list_size (int_bound 24) instr

(* A bank rule like the 56000's: the direct operands of one word name
   different banks, a and c in x, b and d in y. *)
let bank_word_ok instrs =
  let banks =
    List.concat_map
      (fun (i : Target.Instr.t) ->
        List.filter_map
          (function
            | Target.Instr.Dir r ->
              Some (if r.Ir.Mref.base = "a" || r.Ir.Mref.base = "c" then "x" else "y")
            | _ -> None)
          i.operands)
      instrs
  in
  List.length (List.sort_uniq compare banks) = List.length banks

let prop_compaction_matches_reference =
  QCheck.Test.make ~name:"compaction packs the reference's words" ~count:500
    (QCheck.make
       ~print:(fun b ->
         String.concat "; " (List.map Target.Instr.to_string b))
       gen_block)
    (fun block ->
      let machine = Target.Dsp56.machine in
      let slots = Option.get machine.Target.Machine.slots in
      let packed =
        Opt.Compaction.run ~word_ok:bank_word_ok machine
          (Target.Asm.make ~name:"t" (List.map op block))
      in
      packed.Target.Asm.items = reference_pack slots bank_word_ok block)

(* ---- Membank ------------------------------------------------------------------ *)

let test_membank_splits_pairs () =
  let weights = [ (("a", "b"), 10); (("c", "d"), 5); (("a", "c"), 1) ] in
  let bank_of =
    Opt.Membank.assign ~banks:("x", "y") ~weights ~vars:[ "a"; "b"; "c"; "d" ]
  in
  Alcotest.(check bool) "a,b split" true (bank_of "a" <> bank_of "b");
  Alcotest.(check bool) "c,d split" true (bank_of "c" <> bank_of "d");
  let split, total = Opt.Membank.cut_value ~bank_of weights in
  Alcotest.(check bool) "most weight split" true (split >= 15);
  Alcotest.(check int) "total" 16 total

let test_membank_pair_weights () =
  let prog =
    Dfl.Lower.source
      "program t; param N = 4; input a[N], b[N]; output z; var acc;\n\
       begin acc = 0; for i = 0 to N-1 do acc = acc + a[i] * b[i]; end; z = \
       acc; end"
  in
  let weights = Opt.Membank.pair_weights prog in
  (* The a*b pair occurs once per iteration. *)
  Alcotest.(check bool) "a,b pair weighted by trip count" true
    (List.exists (fun ((x, y), w) -> x = "a" && y = "b" && w = 4) weights)

(* ---- Offset -------------------------------------------------------------------- *)

let test_offset_cost () =
  Alcotest.(check int) "adjacent free" 0
    (Opt.Offset.cost ~order:[ "a"; "b"; "c" ] [ "a"; "b"; "c"; "b"; "a" ]);
  Alcotest.(check int) "jumps cost" 2
    (Opt.Offset.cost ~order:[ "a"; "b"; "c" ] [ "a"; "c"; "a"; "b" ])

let test_offset_liao_example () =
  let accesses = [ "a"; "b"; "c"; "d"; "a"; "c"; "b"; "a"; "d"; "a"; "c"; "d" ] in
  let r = Opt.Offset.solve ~vars:[ "a"; "b"; "c"; "d" ] accesses in
  Alcotest.(check bool) "improves on declaration order" true
    (r.Opt.Offset.soa_cost < r.Opt.Offset.declared_cost);
  Alcotest.(check int) "all variables placed" 4 (List.length r.Opt.Offset.order)

let test_offset_no_accesses () =
  let r = Opt.Offset.solve ~vars:[ "a"; "b" ] [] in
  Alcotest.(check int) "cost 0" 0 (Opt.Offset.cost ~order:r.Opt.Offset.order []);
  Alcotest.(check int) "vars kept" 2 (List.length r.Opt.Offset.order)

let prop_offset_never_worse =
  QCheck.Test.make ~name:"SOA order is never worse than declaration order"
    ~count:300
    QCheck.(list_of_size (Gen.int_range 0 30) (oneofl [ "a"; "b"; "c"; "d"; "e"; "f" ]))
    (fun accesses ->
      let vars = [ "a"; "b"; "c"; "d"; "e"; "f" ] in
      let r = Opt.Offset.solve ~vars accesses in
      r.Opt.Offset.soa_cost <= r.Opt.Offset.declared_cost
      && List.sort compare r.Opt.Offset.order = List.sort compare vars)

let suites =
  [
    ( "opt.agu",
      [
        Alcotest.test_case "streams get ARs" `Quick test_agu_streams;
        Alcotest.test_case "shared stream increments once" `Quick
          test_agu_shared_stream_single_increment;
        Alcotest.test_case "descending streams" `Quick test_agu_descending;
        Alcotest.test_case "AGU exhaustion" `Quick test_agu_too_many_streams;
      ] );
    ( "opt.regalloc",
      [
        Alcotest.test_case "sequential reuse" `Quick test_regalloc_sequential_reuse;
        Alcotest.test_case "pressure detection" `Quick test_regalloc_pressure;
        Alcotest.test_case "loop lifetime extension" `Quick
          test_regalloc_loop_extension;
      ] );
    ( "opt.modeopt",
      [
        Alcotest.test_case "lazy strategy" `Quick test_modeopt_lazy;
        Alcotest.test_case "naive strategy" `Quick test_modeopt_naive;
        Alcotest.test_case "reset state known" `Quick test_modeopt_initial_state;
        Alcotest.test_case "loop fixpoint" `Quick test_modeopt_loop_fixpoint;
        Alcotest.test_case "verify catches violations" `Quick
          test_modeopt_verify_catches;
        Alcotest.test_case "verify: a dead loop changes nothing" `Quick
          test_modeopt_dead_loop;
      ] );
    ( "opt.peephole",
      [
        Alcotest.test_case "store/load forwarding" `Quick test_peephole_forwarding;
        Alcotest.test_case "chained forwarding" `Quick
          test_peephole_forwarding_chain;
        Alcotest.test_case "forwarding blocked by redefinition" `Quick
          test_peephole_forwarding_blocked_by_redef;
        Alcotest.test_case "dead scratch elimination" `Quick
          test_peephole_dead_scratch;
        Alcotest.test_case "named stores survive" `Quick
          test_peephole_keeps_named_store;
      ] );
    ( "opt.compaction",
      [
        Alcotest.test_case "dependence relation" `Quick test_depends;
        Alcotest.test_case "packs independent moves" `Quick
          test_compaction_packs_independent_moves;
        Alcotest.test_case "respects dependences" `Quick
          test_compaction_respects_deps;
        Alcotest.test_case "control never packs" `Quick
          test_compaction_ctl_never_packs;
        Alcotest.test_case "sequential machine unchanged" `Quick
          test_compaction_sequential_machine_identity;
        QCheck_alcotest.to_alcotest prop_compaction_matches_reference;
      ] );
    ( "opt.membank",
      [
        Alcotest.test_case "max-cut splits hot pairs" `Quick
          test_membank_splits_pairs;
        Alcotest.test_case "pair weights from programs" `Quick
          test_membank_pair_weights;
      ] );
    ( "opt.offset",
      [
        Alcotest.test_case "cost function" `Quick test_offset_cost;
        Alcotest.test_case "liao example" `Quick test_offset_liao_example;
        Alcotest.test_case "empty sequence" `Quick test_offset_no_accesses;
        QCheck_alcotest.to_alcotest prop_offset_never_worse;
      ] );
  ]

(* ---- Spilling ----------------------------------------------------------------- *)

let xy_load k =
  Target.Instr.make "MOVE"
    ~operands:[ dir (Printf.sprintf "x%d" k); vreg "xy" k ]
    ~defs:[ vreg "xy" k ]
    ~uses:[ dir (Printf.sprintf "x%d" k) ]
    ~funit:"move"

let test_regalloc_spills_under_pressure () =
  (* Five simultaneously-live xy values on dsp56 (4 registers), each
     consumer reading two: without a ctx this is fatal; with one, the
     allocator spills and succeeds.  The ctx mints ids past the program's
     (xy 0-4, acc 5-9), as the one that lowered it would. *)
  let pair k = [ k; (k + 1) mod 5 ] in
  let consumer k =
    Target.Instr.make "USE2"
      ~uses:(List.map (vreg "xy") (pair k))
      ~defs:[ vreg "acc" (5 + k) ]
  in
  let items =
    List.init 5 (fun k -> op (xy_load k)) @ List.init 5 (fun k -> op (consumer k))
  in
  let asm = Target.Asm.make ~name:"t" items in
  (match Opt.Regalloc.run Target.Dsp56.machine asm with
  | _ -> Alcotest.fail "expected pressure without a context"
  | exception Opt.Regalloc.Pressure _ -> ());
  let ctx = Target.Machine.create_ctx () in
  ctx.Target.Machine.next_vreg <- 10;
  let spilled = Opt.Regalloc.run ~ctx Target.Dsp56.machine asm in
  Alcotest.(check bool) "spill code inserted" true
    (Opt.Regalloc.spills_inserted ~before:asm ~after:spilled >= 2);
  (* No virtual registers survive, and following each loaded value through
     registers and scratch cells, every consumer reads the two values it
     was written against. *)
  let held = Hashtbl.create 16 and read = ref [] in
  let name = function Target.Instr.Dir m -> m.Ir.Mref.base | _ -> "?" in
  Target.Asm.iter
    (fun (i : Target.Instr.t) ->
      List.iter
        (fun o ->
          if Target.Instr.vregs_of_operand o <> [] then
            Alcotest.fail "vreg survived")
        (i.defs @ i.uses @ i.operands);
      match (i.opcode, i.defs, i.uses) with
      | "USE2", _, uses -> read := List.map (Hashtbl.find held) uses :: !read
      | _, [ d ], [ u ] ->
        Hashtbl.replace held d (Option.value (Hashtbl.find_opt held u) ~default:u)
      | _ -> Alcotest.fail "unexpected instruction")
    spilled;
  Alcotest.(check (list (list string)))
    "values read"
    (List.init 5 (fun k -> List.map (Printf.sprintf "x%d") (pair k)))
    (List.rev_map (List.map name) !read)

let test_regalloc_spill_not_loop_crossing () =
  (* A value live across a loop must not be chosen as a spill victim
     (reloading inside the body would read a stale cell): with no other
     candidate, allocation fails loudly instead of miscompiling. *)
  let mk k uses =
    Target.Instr.make "MOVE"
      ~operands:[ dir (Printf.sprintf "c%d" k); vreg "xy" k ]
      ~defs:[ vreg "xy" k ] ~uses ~funit:"move"
  in
  let defs = List.init 5 (fun k -> op (mk k [])) in
  let inside =
    Target.Asm.Loop
      {
        ivar = None;
        count = 2;
        body =
          [
            op
              (Target.Instr.make "USEALL"
                 ~uses:(List.init 5 (fun k -> vreg "xy" k))
                 ~defs:[ vreg "acc" 9 ]);
          ];
      }
  in
  let asm = Target.Asm.make ~name:"t" (defs @ [ inside ]) in
  let ctx = Target.Machine.create_ctx () in
  match Opt.Regalloc.run ~ctx Target.Dsp56.machine asm with
  | _ -> Alcotest.fail "expected pressure (no safe victim)"
  | exception Opt.Regalloc.Pressure _ -> ()

(* Pressure no spill relieves: one instruction needs more registers of a
   spillable class than it has, so the allocator gives up at once, with
   the message of the interval that failed first, minting no scratch cell
   and no vreg.  On dsp56 (two accumulators, four xy registers): an
   instruction reading %acc0 and %acc1 and defining %acc2, all three in
   its operands and so live at its use point; and five loaded xy values
   one instruction reads together. *)
let test_regalloc_hopeless_pressure () =
  let acc k = vreg "acc" k in
  let add3 =
    Target.Instr.make "ADD3"
      ~operands:[ acc 0; acc 1; acc 2 ]
      ~defs:[ acc 2 ]
      ~uses:[ acc 0; acc 1 ]
  in
  let useall =
    Target.Instr.make "USEALL"
      ~uses:(List.init 5 (fun k -> vreg "xy" k))
      ~defs:[ acc 5 ]
  in
  List.iter
    (fun (items, ids, expected) ->
      let asm = Target.Asm.make ~name:"t" items in
      let ctx = Target.Machine.create_ctx () in
      ctx.Target.Machine.next_vreg <- ids;
      (match Opt.Regalloc.run ~ctx Target.Dsp56.machine asm with
      | _ -> Alcotest.fail "oversubscribed instruction allocated"
      | exception Opt.Regalloc.Pressure msg ->
        Alcotest.(check string) "the first failing interval" expected msg);
      Alcotest.(check int) "no scratch cell minted" 0
        ctx.Target.Machine.next_scratch;
      Alcotest.(check int) "no vreg minted" ids ctx.Target.Machine.next_vreg)
    [
      ( [ op add3 ],
        3,
        "class acc: no free register for %acc2 (live range 0..1)" );
      ( List.init 5 (fun k -> op (xy_load k)) @ [ op useall ],
        6,
        "class xy: no free register for %xy4 (live range 8..10)" );
    ]

let spill_suites =
  [
    ( "opt.spill",
      [
        Alcotest.test_case "spills under pressure" `Quick
          test_regalloc_spills_under_pressure;
        Alcotest.test_case "loop-crossing values are not victims" `Quick
          test_regalloc_spill_not_loop_crossing;
        Alcotest.test_case "pressure no spill relieves fails at once" `Quick
          test_regalloc_hopeless_pressure;
      ] );
  ]

let suites = suites @ spill_suites

(* ---- Dense allocation tables against the references ------------------------ *)

(* Random allocation inputs: straight-line runs and counted loops, empty
   ones included, over vregs of several classes, with direct, immediate,
   indirect and post-modifying operands, some only in the printable
   operands.  A value operand is drawn as a distance back: 0 in a def
   names a new value, and k names the class's k-th most recent value (a
   use, or a second definition), or one never defined when there are
   fewer.  An address register's id comes from a pool of four for the
   whole program. *)
let gen_alloc_items ~classes ~addr ~uses =
  let open QCheck.Gen in
  let value back = map2 vreg (oneofl classes) back in
  let ind =
    map2
      (fun vid u -> Target.Instr.Ind (vreg addr vid, u, None))
      (int_bound 3)
      (oneofl Target.Instr.[ No_update; Post_inc; Post_dec ])
  in
  let use =
    frequency
      [
        (6, value (int_range 1 6));
        (2, map dir (oneofl [ "a"; "b" ]));
        (2, ind);
        (1, map (fun k -> Target.Instr.Imm k) (int_bound 9));
      ]
  in
  (* The printable operands are completed once the ids are known. *)
  let instr =
    map3
      (fun defs uses extra -> Target.Instr.make "OP" ~operands:extra ~defs ~uses)
      (list_size
         (frequency [ (1, return 0); (3, return 1) ])
         (frequency [ (8, value (return 0)); (1, value (int_range 1 6)); (2, ind) ]))
      (list_size (int_bound uses) use)
      (list_size (frequency [ (4, return 0); (1, return 1) ]) ind)
  in
  let rec items depth size =
    list_size size
      (frequency
         ((8, map op instr)
         ::
         (if depth = 0 then []
          else
            [
              ( 1,
                map
                  (fun body -> Target.Asm.Loop { ivar = None; count = 3; body })
                  (items (depth - 1) (int_bound 5)) );
            ])))
  in
  let resolve items =
    let minted = ref 0 and recent = ref [] in
    let id ~def = function
      | Target.Instr.Vreg { vcls; vid } when vcls <> addr ->
        let mine = Option.value ~default:[] (List.assoc_opt vcls !recent) in
        if def && vid = 0 then begin
          incr minted;
          recent := (vcls, !minted :: mine) :: List.remove_assoc vcls !recent;
          vreg vcls !minted
        end
        else vreg vcls (Option.value ~default:(500 + vid) (List.nth_opt mine (vid - 1)))
      | o -> o
    in
    let rec go = function
      | Target.Asm.Op (i : Target.Instr.t) ->
        let uses = List.map (id ~def:false) i.uses in
        let defs = List.map (id ~def:true) i.defs in
        op (Target.Instr.make "OP" ~operands:(i.operands @ uses @ defs) ~defs ~uses)
      | Target.Asm.Loop l -> Target.Asm.Loop { l with body = List.map go l.body }
      | Target.Asm.Par _ as p -> p
    in
    List.map go items
  in
  map resolve (items 2 (int_range 1 24))

let print_items items = Target.Asm.to_string (Target.Asm.make ~name:"t" items)

(* An allocator's output or failure on a fresh context whose next id lies
   past the program's, with the ids and cells it minted; without a
   context when [with_ctx] is false. *)
let allocation run with_ctx =
  let ctx = Target.Machine.create_ctx () in
  ctx.Target.Machine.next_vreg <- 1000;
  let result = run (if with_ctx then Some ctx else None) in
  (result, ctx.Target.Machine.next_vreg, Target.Machine.scratch_decls ctx)

let ours machine asm ctx =
  match Opt.Regalloc.run ?ctx machine asm with
  | a -> Ok a.Target.Asm.items
  | exception Opt.Regalloc.Pressure msg -> Error msg

let reference machine asm ctx =
  match Reference_alloc.Regalloc.run ?ctx machine asm with
  | a -> Ok a.Target.Asm.items
  | exception Reference_alloc.Regalloc.Pressure msg -> Error msg

let prop_regalloc_matches_reference (label, machine, classes, addr, uses) =
  QCheck.Test.make ~count:400
    ~name:(label ^ ": regalloc allocates as the reference")
    (QCheck.make ~print:print_items (gen_alloc_items ~classes ~addr ~uses))
    (fun items ->
      let asm = Target.Asm.make ~name:"t" items in
      List.for_all
        (fun with_ctx ->
          allocation (ours machine asm) with_ctx
          = allocation (reference machine asm) with_ctx)
        [ false; true ])

(* Per machine: the value classes (a repeated name is drawn more often),
   the address class, and the most reads per instruction; two reads and
   a definition of the ASIP's two accumulators at one instruction could
   never be allocated, however much it spilled. *)
let alloc_machines =
  [
    ("dsp56", Target.Dsp56.machine, [ "xy"; "xy"; "xy"; "acc"; "r" ], "r", 2);
    ( "asip",
      Target.Asip.machine ~name:"asip-a2r4"
        { Target.Asip.default with accumulators = 2; address_regs = 4 },
      [ "acc" ],
      "ar",
      1 );
  ]

(* The property's inputs reach every outcome of the spill path: some
   allocate only after spilling, and some fail even with a context. *)
let test_regalloc_reference_reaches_spills () =
  let spilled = ref 0 and failed = ref 0 in
  List.iter
    (fun (_, machine, classes, addr, uses) ->
      List.iter
        (fun items ->
          match allocation (ours machine (Target.Asm.make ~name:"t" items)) true with
          | Ok _, _, _ :: _ -> incr spilled
          | Error _, _, _ -> incr failed
          | Ok _, _, [] -> ())
        (QCheck.Gen.generate ~rand:(Random.State.make [| 7 |]) ~n:200
           (gen_alloc_items ~classes ~addr ~uses)))
    alloc_machines;
  Alcotest.(check bool) "some inputs spill" true (!spilled > 20);
  Alcotest.(check bool) "some inputs fail" true (!failed > 20)

let test_regalloc_unknown_class () =
  let asm = Target.Asm.make ~name:"t" [ op (Target.Instr.make "ZAC" ~defs:[ vreg "q" 0 ]) ] in
  Alcotest.check_raises "named"
    (Invalid_argument "Regalloc: unknown register class q") (fun () ->
      ignore (Opt.Regalloc.run Target.Tic25.machine asm))

(* Random scratch traffic: "$s" cells, program variables and a pool cell,
   read and written directly, by address and as an indirect stream, in
   runs and loops. *)
let gen_scratch_items =
  let open QCheck.Gen in
  let base =
    frequency
      [
        (6, map (fun n -> "$s" ^ string_of_int n) (int_bound 15));
        (1, oneofl [ "x"; "y"; "$k0" ]);
      ]
  in
  let mref =
    frequency
      [
        (4, map Ir.Mref.scalar base);
        (1, map2 (fun b k -> Ir.Mref.elem b k) base (int_bound 3));
      ]
  in
  let operand =
    frequency
      [
        (4, map (fun r -> Target.Instr.Dir r) mref);
        (1, map (fun r -> Target.Instr.Adr r) mref);
        ( 1,
          map (fun r -> Target.Instr.Ind (vreg "ar" 0, Target.Instr.Post_inc, Some r)) mref
        );
        (1, return (vreg "acc" 1));
      ]
  in
  let instr =
    map2
      (fun defs uses -> Target.Instr.make "OP" ~operands:(uses @ defs) ~defs ~uses)
      (list_size (int_bound 1) operand)
      (list_size (int_bound 2) operand)
  in
  let rec items depth size =
    list_size size
      (frequency
         ((5, map op instr)
         ::
         (if depth = 0 then []
          else
            [
              ( 1,
                map
                  (fun body -> Target.Asm.Loop { ivar = None; count = 2; body })
                  (items (depth - 1) (int_bound 6)) );
            ])))
  in
  items 2 (int_range 1 16)

let prop_scratchpack_matches_reference =
  QCheck.Test.make ~count:500 ~name:"scratchpack packs as the reference"
    (QCheck.make ~print:print_items gen_scratch_items)
    (fun items ->
      let asm = Target.Asm.make ~name:"t" items in
      let ours, decls = Opt.Scratchpack.run asm in
      let theirs, decls' = Reference_alloc.Scratchpack.run asm in
      ours.Target.Asm.items = theirs.Target.Asm.items && decls = decls')

(* ---- Listings against the Format renderer ---------------------------------- *)

let reference_listing asm = Format.asprintf "%a" Reference_alloc.Listing.pp asm

let gen_listing =
  let open QCheck.Gen in
  let mref =
    oneof
      [
        map Ir.Mref.scalar (oneofl [ "x"; "$s3"; "coefficients" ]);
        map2 Ir.Mref.elem (oneofl [ "a"; "b" ]) (int_bound 12);
        map3
          (fun offset step ivar -> Ir.Mref.induct ~offset ~step "a" ~ivar)
          (int_range (-3) 3) (oneofl [ 1; -1 ]) (oneofl [ "i"; "i1" ]);
      ]
  in
  let operand =
    oneof
      [
        map (fun idx -> Target.Instr.reg "ar" idx) (int_bound 7);
        map (fun k -> Target.Instr.Imm k) (int_range (-300) 300);
        map (fun r -> Target.Instr.Dir r) mref;
        map (fun r -> Target.Instr.Adr r) mref;
        map (fun vid -> vreg "xy" vid) (int_bound 20);
        map2
          (fun idx u -> Target.Instr.Ind (Target.Instr.reg "r" idx, u, None))
          (int_bound 7)
          (oneofl Target.Instr.[ No_update; Post_inc; Post_dec ]);
      ]
  in
  let instr =
    map2
      (fun opcode operands -> Target.Instr.make opcode ~operands)
      (oneofl [ "ZAC"; "MOVE"; "MACR"; "LDARI"; "LONGOPCODE" ])
      (list_size (int_bound 4) operand)
  in
  let item =
    frequency
      [ (4, map op instr); (1, map (fun is -> Target.Asm.Par is) (list_size (int_range 1 3) instr)) ]
  in
  let body = list_size (int_bound 5) item in
  map2
    (fun pre body ->
      Target.Asm.make ~name:"listing"
        (pre @ [ Target.Asm.Loop { ivar = Some "i"; count = 7; body } ]))
    body body

let prop_listing_matches_format =
  QCheck.Test.make ~count:500 ~name:"listing renders as the Format printer"
    (QCheck.make ~print:reference_listing gen_listing)
    (fun asm ->
      let text = reference_listing asm in
      Target.Asm.to_string asm = text && Format.asprintf "%a" Target.Asm.pp asm = text)

(* Format breaks nothing at its 78-column margin here: a line that long
   renders as one line, as it did through Format. *)
let test_listing_long_line () =
  let m =
    Target.Instr.make "MACR"
      ~operands:
        [
          Target.Instr.Dir (Ir.Mref.induct ~offset:(-15) ~step:(-1) "coefficients" ~ivar:"i1");
          Target.Instr.Ind (Target.Instr.reg "r" 4, Target.Instr.Post_dec, None);
          Target.Instr.Adr (Ir.Mref.elem "delay_line" 12);
        ]
  in
  let asm =
    Target.Asm.make ~name:"wide"
      [ Target.Asm.Loop { ivar = None; count = 2; body = [ Target.Asm.Par [ m; m; m ] ] } ]
  in
  let text = Target.Asm.to_string asm in
  Alcotest.(check bool) "a line passes column 78" true
    (List.exists (fun l -> String.length l > 78) (String.split_on_char '\n' text));
  Alcotest.(check string) "Format's text" (reference_listing asm) text;
  Alcotest.(check string) "through pp" text (Format.asprintf "%a" Target.Asm.pp asm)

let reference_suites =
  [
    ( "opt.regalloc.ref",
      List.map
        (fun m -> QCheck_alcotest.to_alcotest (prop_regalloc_matches_reference m))
        alloc_machines
      @ [
          Alcotest.test_case "random inputs reach the spill path" `Quick
            test_regalloc_reference_reaches_spills;
          Alcotest.test_case "unknown class named" `Quick test_regalloc_unknown_class;
        ] );
    ( "opt.scratchpack",
      [ QCheck_alcotest.to_alcotest prop_scratchpack_matches_reference ] );
    ( "target.listing",
      [
        QCheck_alcotest.to_alcotest prop_listing_matches_format;
        Alcotest.test_case "line longer than the margin" `Quick test_listing_long_line;
      ] );
  ]

let suites = suites @ reference_suites
