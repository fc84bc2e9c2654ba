(* Differential harness: the compiled simulator engine against the
   reference interpreter.  Every observable — outputs, cycle counts, and
   raised errors — must match exactly, across the Table-1 kernels on all
   bundled machines, a seeded fuzz corpus, and hand-built assemblies that
   aim at the translator's hoisting and fusion decisions. *)

let machines () =
  [
    Target.Tic25.machine;
    Target.Dsp56.machine;
    Target.Risc32.machine;
    Target.Asip.machine Target.Asip.default;
  ]

(* One simulation outcome, errors included, as a comparable value. *)
type result =
  | Finished of (string * int array) list * int
  | Mode of string
  | Exec of string

let pp_result ppf = function
  | Finished (outs, cycles) ->
    Format.fprintf ppf "finished: %d cycles, %s" cycles
      (String.concat "; "
         (List.map
            (fun (n, vs) ->
              n ^ "="
              ^ String.concat ","
                  (Array.to_list (Array.map string_of_int vs)))
            outs))
  | Mode msg -> Format.fprintf ppf "Mode_violation %s" msg
  | Exec msg -> Format.fprintf ppf "Exec_error %s" msg

let result : result Alcotest.testable = Alcotest.testable pp_result ( = )

let capture f =
  match f () with
  | outs, cycles -> Finished (outs, cycles)
  | exception Sim.Mode_violation msg -> Mode msg
  | exception Sim.Exec_error msg -> Exec msg

let check_engines label exec =
  let interp = capture (fun () -> exec Sim.Interp) in
  let compiled = capture (fun () -> exec Sim.Compiled) in
  Alcotest.check result label interp compiled;
  interp

(* ---- Table-1 kernels x machines x option sets --------------------------- *)

let test_kernels_all_machines () =
  let ran = ref 0 in
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let prog = Dspstone.Kernels.prog k in
      List.iter
        (fun (m : Target.Machine.t) ->
          List.iter
            (fun (opt_label, options) ->
              match Record.Pipeline.compile ~options m prog with
              | exception Record.Pipeline.Error _ -> ()
              | c ->
                let label =
                  Printf.sprintf "%s on %s/%s" k.name m.name opt_label
                in
                ignore
                  (check_engines label (fun engine ->
                       Record.Pipeline.execute ~engine c ~inputs:k.inputs));
                incr ran)
            [
              ("record", Record.Options.record_);
              ("conv", Record.Options.conventional);
            ])
        (machines ()))
    (Dspstone.Kernels.all @ Dspstone.Kernels.extended);
  if !ran < 40 then
    Alcotest.failf "only %d kernel/machine/options combos executed" !ran

let test_hand_assemblies () =
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      ignore
        (check_engines
           (Printf.sprintf "hand %s" k.name)
           (fun engine -> Dspstone.Suite.run_hand ~engine k)))
    (Dspstone.Kernels.all @ Dspstone.Kernels.extended)

(* ---- seeded fuzz corpus -------------------------------------------------- *)

let test_fuzz_corpus () =
  let cases = Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 6) ~seed:42 ~count:500 () in
  let ms = Array.of_list (machines ()) in
  let ran = ref 0 in
  List.iter
    (fun (case : Fuzz.Gen.case) ->
      let m = ms.(case.Fuzz.Gen.index mod Array.length ms) in
      match Record.Pipeline.compile ~options:Record.Options.record_ m case.prog with
      | exception Record.Pipeline.Error _ -> ()
      | c ->
        let label =
          Printf.sprintf "fuzz case %d on %s" case.Fuzz.Gen.index m.name
        in
        ignore
          (check_engines label (fun engine ->
               Record.Pipeline.execute ~engine c ~inputs:case.inputs));
        incr ran)
    cases;
  if !ran < 300 then Alcotest.failf "only %d fuzz cases executed" !ran

(* ---- dsp-long sizes ------------------------------------------------------ *)

(* The looped DSPStone kernels re-parameterised to thousands of trips, as
   the dsp-long benchmark runs them.  Their state's memory is larger than
   256 words, so it lives in the major heap.  Inputs in [-3, 3] are redrawn
   until the exact evaluation stays inside the word, so both engines must
   also match [Ir.Eval]. *)
let long_kernels =
  [ "dot_product"; "fir"; "convolution"; "n_real_updates"; "n_complex_updates" ]

let with_trips (k : Dspstone.Kernels.t) n =
  let from = "param N = 16;" and src = k.Dspstone.Kernels.source in
  let m = String.length from in
  let rec find i =
    if i + m > String.length src then Alcotest.failf "%s: no %s" k.name from
    else if String.sub src i m = from then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub src 0 i
  ^ Printf.sprintf "param N = %d;" n
  ^ String.sub src (i + m) (String.length src - i - m)

let long_inputs st ~width (prog : Ir.Prog.t) =
  let draw () =
    List.filter_map
      (fun (d : Ir.Prog.decl) ->
        match d.Ir.Prog.storage with
        | Ir.Prog.Input ->
          Some
            ( d.Ir.Prog.name,
              Array.init d.Ir.Prog.size (fun _ -> Random.State.int st 7 - 3) )
        | Ir.Prog.Output | Ir.Prog.Temp -> None)
      prog.Ir.Prog.decls
  in
  let rec go attempts =
    let inputs = draw () in
    if Fuzz.Oracle.within_contract ~width prog inputs then inputs
    else if attempts = 0 then Alcotest.fail "no input draw inside the contract"
    else go (attempts - 1)
  in
  go 100

let test_long_kernels () =
  let st = Random.State.make [| 1000; 3999 |] in
  let ran = ref 0 in
  List.iter
    (fun name ->
      let k = Dspstone.Kernels.find name in
      List.iter
        (fun n ->
          let prog = Dfl.Lower.source (with_trips k n) in
          List.iter
            (fun (m : Target.Machine.t) ->
              let width = m.Target.Machine.word_bits in
              let inputs = long_inputs st ~width prog in
              match
                Record.Pipeline.compile ~options:Record.Options.record_ m prog
              with
              | exception Record.Pipeline.Error _ -> ()
              | c -> (
                let label = Printf.sprintf "%s at N = %d on %s" name n m.name in
                match
                  check_engines label (fun engine ->
                      Record.Pipeline.execute ~engine c ~inputs)
                with
                | Finished (outs, _) ->
                  Alcotest.(check (list (pair string (array int))))
                    (label ^ " against Ir.Eval")
                    (Ir.Eval.run_with_inputs ~width prog inputs)
                    outs;
                  incr ran
                | r -> Alcotest.failf "%s: %a" label pp_result r))
            (machines ()))
        [ 1000; 3999 ])
    long_kernels;
  (* the default asip compiles neither update kernel *)
  if !ran < 36 then Alcotest.failf "only %d kernel/N/machine runs" !ran

(* ---- engine-boundary properties ------------------------------------------ *)

(* Hand-built tic25 assembly aimed at specific translator decisions. *)
let machine = Target.Tic25.machine
let op i = Target.Asm.Op i
let imm k = Target.Instr.Imm k
let reg r = Target.Instr.Reg r
let ind ?(u = Target.Instr.No_update) r = Target.Instr.Ind (reg r, u, None)
let post_inc r = ind ~u:Target.Instr.Post_inc r
let adr name = Target.Instr.Adr (Ir.Mref.scalar name)
let ar0 = Target.Tic25.ar 0
let lack k = Target.Instr.make "LACK" ~operands:[ imm k ]
let lark ops = Target.Instr.make "LARK" ~operands:ops
let sovm = Target.Instr.make "SOVM" ~mode_set:("ovm", 1) ~funit:"ctl"
let rovm = Target.Instr.make "ROVM" ~mode_set:("ovm", 0) ~funit:"ctl"
let sat_neg = Target.Instr.make "NEG" ~mode_req:("ovm", 1)

let run_both ~layout items =
  let asm = Target.Asm.make ~name:"prop" items in
  let r engine = Sim.run ~engine machine ~layout ~inputs:[] asm in
  let interp = r Sim.Interp and compiled = r Sim.Compiled in
  Alcotest.(check int) "cycles agree" interp.Sim.cycles compiled.Sim.cycles;
  (interp, compiled)

(* Post-modify updates land at the instruction boundary: the writing
   instruction after a post-incrementing read must see the advanced
   register, in both engines. *)
let test_post_modify_boundary () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("a", 2, "data") ] in
  let items =
    [
      op (lark [ reg ar0; adr "a" ]);
      op (Target.Instr.make "LAC" ~operands:[ post_inc ar0 ]);
      op (Target.Instr.make "SACL" ~operands:[ ind ar0 ]);
    ]
  in
  let check_state label (o : Sim.outcome) =
    Alcotest.(check (array int))
      (label ^ ": a") [| 5; 5 |]
      (Target.Mstate.get_var o.Sim.state "a")
  in
  let asm = Target.Asm.make ~name:"prop" items in
  let r engine =
    let st =
      Sim.run ~engine machine
        ~layout
        ~inputs:[ ("a", [| 5; 9 |]) ]
        asm
    in
    st
  in
  check_state "interp" (r Sim.Interp);
  check_state "compiled" (r Sim.Compiled)

(* RPTMAC with both stream operands on one post-incrementing register:
   every repetition reads the pre-instruction register value twice, then
   the two queued updates apply — stride 2 per repetition. *)
let test_rptmac_stride () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("a", 4, "data") ] in
  let asm =
    Target.Asm.make ~name:"prop"
      [
        op (lark [ reg ar0; adr "a" ]);
        op
          (Target.Instr.make "RPTMAC"
             ~operands:[ imm 2; post_inc ar0; post_inc ar0 ]);
        op (Target.Instr.make "APAC");
      ]
  in
  let r engine =
    Sim.run ~engine machine ~layout ~inputs:[ ("a", [| 2; 3; 4; 5 |]) ] asm
  in
  let base = Target.Layout.base_address layout (Ir.Mref.scalar "a") in
  List.iter
    (fun (label, engine) ->
      let o = r engine in
      Alcotest.(check int)
        (label ^ ": ar0 stride 2 per rep")
        (base + 4)
        (Target.Mstate.get_reg o.Sim.state ar0);
      (* rep1: acc+=preg(0), t=a[0]=2, p=4; rep2: acc+=4, t=a[2]=4, p=16;
         APAC: acc = 4 + 16 *)
      Alcotest.(check int)
        (label ^ ": acc") 20
        (Target.Mstate.get_reg o.Sim.state Target.Tic25.acc))
    [ ("interp", Sim.Interp); ("compiled", Sim.Compiled) ]

(* A parallel word costs exactly one cycle in both engines. *)
let test_par_costs_one_cycle () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let dir_x = Target.Instr.Dir (Ir.Mref.scalar "x") in
  let interp, compiled =
    run_both ~layout
      [
        Target.Asm.Par
          [
            lack 7;
            Target.Instr.make "SACL" ~operands:[ dir_x ] ~defs:[ dir_x ];
          ];
      ]
  in
  Alcotest.(check int) "par word is one cycle" 1 interp.Sim.cycles;
  Alcotest.(check int) "compiled too" 1 compiled.Sim.cycles

(* The static mode tracker must not assume a mode survives a loop back
   edge: iteration 1 satisfies the requirement, iteration 2 violates it,
   and both engines must trip with the identical message. *)
let test_mode_trip_same_point_in_loop () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let asm =
    Target.Asm.make ~name:"prop"
      [
        op (lack 1);
        op sovm;
        Target.Asm.Loop
          { ivar = None; count = 2; body = [ op sat_neg; op rovm ] };
      ]
  in
  List.iter
    (fun (label, engine) ->
      Alcotest.check_raises label
        (Sim.Mode_violation "NEG requires ovm=1, machine has ovm=0")
        (fun () ->
          ignore (Sim.run ~engine machine ~layout ~inputs:[] asm)))
    [ ("interp", Sim.Interp); ("compiled", Sim.Compiled) ]

(* A statically-satisfied requirement is hoisted out entirely — and must
   still execute correctly. *)
let test_mode_hoisted_when_static () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let dir_x = Target.Instr.Dir (Ir.Mref.scalar "x") in
  let interp, compiled =
    run_both ~layout
      [
        op (lack (-32768));
        op sovm;
        op sat_neg;
        op (Target.Instr.make "SACL" ~operands:[ dir_x ] ~defs:[ dir_x ]);
      ]
  in
  Alcotest.(check int) "saturated" 32767
    (match Target.Mstate.get_var interp.Sim.state "x" with
    | [| v |] -> v
    | _ -> Alcotest.fail "x is a scalar");
  Alcotest.(check (array int))
    "states agree"
    (Target.Mstate.get_var interp.Sim.state "x")
    (Target.Mstate.get_var compiled.Sim.state "x")

(* A zero-trip loop never executes its body: a garbage opcode inside must
   not trip either engine, and costs nothing. *)
let test_dead_loop_skipped () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let interp, compiled =
    run_both ~layout
      [
        Target.Asm.Loop
          {
            ivar = None;
            count = 0;
            body = [ op (Target.Instr.make "FROB") ];
          };
      ]
  in
  Alcotest.(check int) "no cycles" 0 interp.Sim.cycles;
  Alcotest.(check int) "compiled no cycles" 0 compiled.Sim.cycles

(* Addresses are resolved while staging, but one the layout cannot resolve
   still fails only when its instruction runs: an earlier mode violation
   wins, the out-of-bounds store is an [Exec_error] in both engines, and a
   repeat count of zero never touches its operands. *)
let test_unresolved_address_fails_at_run () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let bad = Target.Instr.Dir (Ir.Mref.elem "x" 5) in
  let sacl_bad = Target.Instr.make "SACL" ~operands:[ bad ] ~defs:[ bad ] in
  let exec items engine =
    let o =
      Sim.run ~engine machine ~layout ~inputs:[]
        (Target.Asm.make ~name:"prop" items)
    in
    ([ ("x", Target.Mstate.get_var o.Sim.state "x") ], o.Sim.cycles)
  in
  List.iter
    (fun (label, items, expected) ->
      Alcotest.check result label expected (check_engines label (exec items)))
    [
      ( "mode violation first",
        [ op (lack 1); op sat_neg; op sacl_bad ],
        Mode "NEG requires ovm=1, machine has ovm=0" );
      ( "out-of-bounds store",
        [ op (lack 1); op sacl_bad ],
        Exec "Layout.address: x[5] index 5 out of bounds" );
      ( "zero repeats read nothing",
        [ op (Target.Instr.make "RPTMAC" ~operands:[ imm 0; bad; bad ]) ],
        Finished ([ ("x", [| 0 |]) ], 1) );
    ]

(* A mode the machine does not declare is one more register: it reads 0
   until written, so an instruction that requires or sets it behaves the
   same on both engines, at top level and inside a loop body. *)
let test_undeclared_mode () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let req v = op (Target.Instr.make "NEG" ~mode_req:("m", v)) in
  let set v = op (Target.Instr.make "SM" ~mode_set:("m", v) ~funit:"ctl") in
  let loop body = Target.Asm.Loop { ivar = None; count = 2; body } in
  let exec items engine =
    let o =
      Sim.run ~engine machine ~layout ~inputs:[]
        (Target.Asm.make ~name:"prop" items)
    in
    ([ ("x", Target.Mstate.get_var o.Sim.state "x") ], o.Sim.cycles)
  in
  let finished cycles = Finished ([ ("x", [| 0 |]) ], cycles) in
  List.iter
    (fun (label, items, expected) ->
      Alcotest.check result label expected (check_engines label (exec items)))
    [
      ("m=0 holds", [ req 0 ], finished 1);
      ("m=1 fails", [ req 1 ], Mode "NEG requires m=1, machine has m=0");
      ("set m=1, then m=1 holds", [ set 1; req 1 ], finished 2);
      ("m=0 holds in a body", [ loop [ req 0 ] ], finished 2);
      ( "m=1 fails in a body",
        [ loop [ req 1 ] ],
        Mode "NEG requires m=1, machine has m=0" );
      ( "set m=1 in a body fails its second trip",
        [ loop [ req 0; set 1 ] ],
        Mode "NEG requires m=0, machine has m=1" );
    ]

(* Both engines write the inputs in order, so a bad input list fails the
   same way in each: at the over-long value, before the unknown name. *)
let test_bad_inputs_fail_alike () =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("x", 1, "data") ] in
  let asm = Target.Asm.make ~name:"prop" [] in
  let outcome engine =
    match
      Sim.run ~engine machine ~layout
        ~inputs:[ ("x", [| 1; 2 |]); ("nosuch", [| 3 |]) ]
        asm
    with
    | _ -> "ran"
    | exception e -> Printexc.to_string e
  in
  Alcotest.(check string)
    "interp" {|Invalid_argument("Mstate: x holds 1 values, got 2")|}
    (outcome Sim.Interp);
  Alcotest.(check string) "compiled" (outcome Sim.Interp) (outcome Sim.Compiled)

(* One translated plan, shared across domains: every domain must get the
   interpreter's answer. *)
let test_plan_shared_across_domains () =
  let k = Dspstone.Kernels.find "fir" in
  let asm = Dspstone.Handasm.find k.name in
  let layout = Dspstone.Handasm.layout_for k in
  let plan =
    Sim.Compile.prepare ~width:machine.Target.Machine.word_bits machine ~layout
      asm
  in
  let reference =
    Sim.run ~width:machine.Target.Machine.word_bits ~engine:Sim.Interp machine
      ~layout ~inputs:k.inputs asm
  in
  let expected = Sim.outputs reference (Dspstone.Kernels.prog k) in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let o = Sim.Compile.run plan ~inputs:k.inputs in
            (Sim.outputs o (Dspstone.Kernels.prog k), o.Sim.Compile.cycles)))
  in
  List.iter
    (fun d ->
      let outs, cycles = Domain.join d in
      Alcotest.(check int) "cycles" reference.Sim.cycles cycles;
      List.iter
        (fun (name, want) ->
          match List.assoc_opt name outs with
          | Some got -> Alcotest.(check (array int)) name want got
          | None -> Alcotest.failf "missing output %s" name)
        expected)
    domains

(* ---- borrowed data memory ------------------------------------------------ *)

(* A program's declarations as [Sim.simulate] reads them. *)
let decls_prog decls =
  Ir.Prog.make ~name:"prop"
    ~decls:
      (List.map
         (fun (name, size, storage) -> Ir.Prog.array_decl ~storage name size)
         decls)
    []

let decls_layout decls =
  Target.Layout.make ~banks:[ "data" ]
    (List.map (fun (name, size, _) -> (name, size, "data")) decls)

(* One hand-built program, given its declarations and its items, on a
   borrowed state. *)
let simulate ?(inputs = []) engine decls items =
  Sim.simulate ~engine machine ~layout:(decls_layout decls) ~inputs
    (Target.Asm.make ~name:"prop" items)
    (decls_prog decls)

(* The same program on a state of its own, exactly its layout's size. *)
let run_exclusive ?(inputs = []) engine decls items =
  let o =
    Sim.run ~engine machine ~layout:(decls_layout decls) ~inputs
      (Target.Asm.make ~name:"prop" items)
  in
  (Sim.outputs o (decls_prog decls), o.Sim.cycles)

let engines = [ ("interp", Sim.Interp); ("compiled", Sim.Compiled) ]

(* A domain's spare block is longer than most layouts, yet an address past
   a state's own layout still fails: after a run on a 30,000-word layout
   on this domain, a load and a store one word past a 10-word layout raise
   the [Exec_error] an array of exactly 10 words raises, on both
   engines. *)
let test_bounds_after_large_run () =
  let big = [ ("big", 30_000, Ir.Prog.Input) ] in
  let small = [ ("x", 10, Ir.Prog.Output) ] in
  let past = op (lark [ reg ar0; imm 10 ]) in
  let sacl o = Target.Instr.make "SACL" ~operands:[ o ] ~defs:[ o ] in
  List.iter
    (fun (access, items) ->
      List.iter
        (fun (label, engine) ->
          let label = access ^ ", " ^ label in
          ignore
            (simulate engine big [] ~inputs:[ ("big", Array.make 30_000 7) ]);
          Alcotest.check result (label ^ ": borrowed")
            (Exec "index out of bounds")
            (capture (fun () -> simulate engine small items));
          Alcotest.check result (label ^ ": exact size")
            (Exec "index out of bounds")
            (capture (fun () -> run_exclusive engine small items)))
        engines)
    [
      ("load", [ past; op (Target.Instr.make "LAC" ~operands:[ ind ar0 ]) ]);
      ("store", [ past; op (lack 1); op (sacl (ind ar0)) ]);
    ]

(* A run that fails leaves its data in the domain's spare block; the next
   run must still start from zeroed memory.  Each failing run first writes
   sevens over 64 words through its inputs; the next run adds [x] to [y],
   which no input writes, and must give [x], as on a state of its own.
   The interpreter polls no deadline, so only the compiled engine runs
   past one. *)
let test_run_after_failure () =
  let junk = [ ("junk", 64, Ir.Prog.Input) ] in
  let sevens = [ ("junk", Array.make 64 7) ] in
  let dir name = Target.Instr.Dir (Ir.Mref.scalar name) in
  let next = [ ("y", 1, Ir.Prog.Output); ("x", 1, Ir.Prog.Input) ] in
  let add_x =
    [
      op (Target.Instr.make "LAC" ~operands:[ dir "y" ]);
      op (Target.Instr.make "ADD" ~operands:[ dir "x" ]);
      op (Target.Instr.make "SACL" ~operands:[ dir "y" ] ~defs:[ dir "y" ]);
    ]
  in
  let inputs = [ ("x", [| 5 |]) ] in
  let long_loop =
    [
      Target.Asm.Loop
        {
          ivar = None;
          count = 1_000_000_000;
          body = [ op (Target.Instr.make "ZAC") ];
        };
    ]
  in
  let failures =
    [
      ( "Exec_error",
        engines,
        fun engine ->
          simulate engine junk ~inputs:sevens
            [
              op (lark [ reg ar0; imm 64 ]);
              op (Target.Instr.make "LAC" ~operands:[ ind ar0 ]);
            ] );
      ( "Mode_violation",
        engines,
        fun engine ->
          simulate engine junk ~inputs:sevens [ op (lack 1); op sat_neg ] );
      ( "Ir.Deadline.Expired",
        [ ("compiled", Sim.Compiled) ],
        fun engine ->
          Ir.Deadline.within 0.001 (fun () ->
              simulate engine junk ~inputs:sevens long_loop) );
    ]
  in
  List.iter
    (fun (raised, engines, fails) ->
      List.iter
        (fun (label, engine) ->
          let label = raised ^ ", " ^ label in
          (match fails engine with
          | _ -> Alcotest.failf "%s: the failing run finished" label
          | exception
              (Sim.Exec_error _ | Sim.Mode_violation _ | Ir.Deadline.Expired) ->
            ());
          Alcotest.check result label
            (capture (fun () -> run_exclusive engine next add_x ~inputs))
            (capture (fun () -> simulate engine next add_x ~inputs)))
        engines)
    failures

(* Two domains, each simulating its own dsp-long kernel over and over at
   the same time, and two threads of one domain, one holding a borrowed
   state while the other simulates a kernel, get what running alone
   gives: a second borrower on a domain gets a block of its own and
   leaves the first one's memory as it was. *)
let test_concurrent_borrowers () =
  let st = Random.State.make [| 29 |] in
  let job name (m : Target.Machine.t) =
    let k = Dspstone.Kernels.find name in
    let prog = Dfl.Lower.source (with_trips k 2999) in
    let c = Record.Pipeline.compile ~options:Record.Options.record_ m prog in
    let inputs = long_inputs st ~width:m.Target.Machine.word_bits prog in
    let run () = Record.Pipeline.execute c ~inputs in
    (run, run ())
  in
  let repeat (run, expected) () =
    List.for_all (fun _ -> run () = expected) (List.init 20 Fun.id)
  in
  let domains =
    List.map
      (fun j -> Domain.spawn (repeat j))
      [
        job "n_real_updates" Target.Tic25.machine; job "fir" Target.Dsp56.machine;
      ]
  in
  List.iteri
    (fun i d ->
      Alcotest.(check bool) (Printf.sprintf "domain %d" i) true (Domain.join d))
    domains;
  (* The holder's layout is larger than the kernel's image, so a block
     shared between the threads would be large enough for the kernel. *)
  let run, expected = job "n_complex_updates" Target.Dsp56.machine in
  let words = 30_000 in
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("v", words, "data") ] in
  (* the domain's spare block now holds the layout, so the holder takes
     it rather than allocating *)
  Target.Mstate.borrow ~layout ~modes:[] ignore;
  let held = Atomic.make false and ran = Atomic.make false in
  let wait flag =
    while not (Atomic.get flag) do
      Thread.yield ()
    done
  in
  let intact = ref false and result = ref None in
  let holder =
    Thread.create
      (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set held true)
          (fun () ->
            Target.Mstate.borrow ~layout ~modes:[] (fun st ->
                for a = 0 to words - 1 do
                  Target.Mstate.store st a (a land 0x3fff)
                done;
                Atomic.set held true;
                wait ran;
                intact := true;
                for a = 0 to words - 1 do
                  if Target.Mstate.load st a <> a land 0x3fff then
                    intact := false
                done)))
      ()
  in
  let other =
    Thread.create
      (fun () ->
        wait held;
        result := Some (try Ok (run ()) with e -> Error (Printexc.to_string e));
        Atomic.set ran true)
      ()
  in
  Thread.join holder;
  Thread.join other;
  Alcotest.(check bool) "the holder's memory is intact" true !intact;
  Alcotest.(check bool) "the other thread's outputs" true
    (!result = Some (Ok expected))

(* [Sim.run]'s state is its own: jobs simulated after it on the same
   domain borrow the domain's spare block and leave that state as it
   was. *)
let test_escaping_state_intact () =
  let k = Dspstone.Kernels.find "fir" in
  let layout = Dspstone.Handasm.layout_for k in
  let prog = Dspstone.Kernels.prog k in
  List.iter
    (fun (label, engine) ->
      let o =
        Sim.run ~width:machine.Target.Machine.word_bits ~engine machine ~layout
          ~inputs:k.inputs (Dspstone.Handasm.find k.name)
      in
      let memory = Array.copy o.Sim.state.Target.Mstate.mem in
      let outputs = Sim.outputs o prog in
      List.iter
        (fun name ->
          let k = Dspstone.Kernels.find name in
          let c =
            Record.Pipeline.compile ~options:Record.Options.record_ machine
              (Dspstone.Kernels.prog k)
          in
          ignore (Record.Pipeline.execute ~engine c ~inputs:k.inputs))
        [ "fir"; "dot_product"; "n_real_updates"; "matrix_1x3" ];
      Alcotest.(check (array int)) (label ^ ": memory") memory
        o.Sim.state.Target.Mstate.mem;
      Alcotest.(check (list (pair string (array int))))
        (label ^ ": outputs") outputs (Sim.outputs o prog))
    engines

(* The second execution of a job allocates no data image: words allocated
   directly in the major heap (major minus promoted) stay below the
   image's size on every bundled machine, for an N = 2,000 fir. *)
let test_execute_allocates_no_image () =
  let st = Random.State.make [| 2000 |] in
  let prog = Dfl.Lower.source (with_trips (Dspstone.Kernels.find "fir") 2000) in
  let ran = ref 0 in
  List.iter
    (fun (m : Target.Machine.t) ->
      match Record.Pipeline.compile ~options:Record.Options.record_ m prog with
      | exception Record.Pipeline.Error _ -> ()
      | c ->
        let inputs = long_inputs st ~width:m.Target.Machine.word_bits prog in
        ignore (Record.Pipeline.execute c ~inputs);
        let _, promoted0, major0 = Gc.counters () in
        ignore (Record.Pipeline.execute c ~inputs);
        let _, promoted1, major1 = Gc.counters () in
        let direct = major1 -. major0 -. (promoted1 -. promoted0) in
        let image = Target.Layout.total_size c.Record.Pipeline.layout in
        Alcotest.(check bool)
          (Printf.sprintf "%s: %.0f words directly in the major heap, image %d"
             m.Target.Machine.name direct image)
          true
          (direct < float_of_int image);
        incr ran)
    (machines ());
  Alcotest.(check int) "every bundled machine compiled fir" 4 !ran

(* ---- post-modify at the operand ----------------------------------------- *)

(* Every register named in an operand, outside or inside an indirect. *)
let rec operand_regs acc (o : Target.Instr.operand) =
  match o with
  | Target.Instr.Reg r -> r :: acc
  | Target.Instr.Ind (inner, _, _) -> operand_regs acc inner
  | Target.Instr.Vreg _ | Target.Instr.Imm _ | Target.Instr.Adr _
  | Target.Instr.Dir _ ->
    acc

let instr_operands (i : Target.Instr.t) =
  i.Target.Instr.operands @ i.Target.Instr.defs @ i.Target.Instr.uses

(* Address registers: the ones inside an indirect. *)
let address_regs (i : Target.Instr.t) =
  List.sort_uniq compare
    (List.concat_map
       (function
         | Target.Instr.Ind (inner, _, _) -> operand_regs [] inner
         | _ -> [])
       (instr_operands i))

(* Rename [i]'s address registers to random free indices of their class
   (copies stay copies) and draw each walking operand's direction. *)
let reshuffle st (i : Target.Instr.t) =
  let ars = address_regs i in
  let bare =
    List.concat_map
      (function Target.Instr.Reg r -> [ r ] | _ -> [])
      (instr_operands i)
  in
  let taken = ref bare in
  let fresh (r : Target.Instr.reg) =
    let rec draw () =
      let r' = { r with Target.Instr.idx = Random.State.int st 8 } in
      if List.mem r' !taken then draw ()
      else begin
        taken := r' :: !taken;
        r'
      end
    in
    draw ()
  in
  let map = List.map (fun r -> (r, fresh r)) ars in
  let rename = function
    | Target.Instr.Reg r when List.mem_assoc r map ->
      Target.Instr.Reg (List.assoc r map)
    | o -> o
  in
  let i = Target.Instr.map_operands rename i in
  let redirect = function
    | Target.Instr.Ind
        (inner, (Target.Instr.Post_inc | Target.Instr.Post_dec), s) ->
      Target.Instr.Ind
        ( inner,
          (if Random.State.bool st then Target.Instr.Post_inc
           else Target.Instr.Post_dec),
          s )
    | o -> o
  in
  { i with Target.Instr.operands = List.map redirect i.Target.Instr.operands }

let has_walk (i : Target.Instr.t) =
  List.exists
    (function
      | Target.Instr.Ind (_, (Target.Instr.Post_inc | Target.Instr.Post_dec), _)
        ->
        true
      | _ -> false)
    i.Target.Instr.operands

(* Instructions that walk an address register, from the looped DSPStone
   kernels compiled with AGU streams (tic25 adds its hand assemblies,
   RPTMAC included), each with its layout. *)
let walking_instrs (m : Target.Machine.t) =
  let rec items layout acc = function
    | Target.Asm.Op i -> if has_walk i then (layout, i) :: acc else acc
    | Target.Asm.Par is ->
      List.fold_left (fun acc i -> items layout acc (Target.Asm.Op i)) acc is
    | Target.Asm.Loop { body; _ } -> List.fold_left (items layout) acc body
  in
  let of_asm layout (asm : Target.Asm.t) acc =
    List.fold_left (items layout) acc asm.Target.Asm.items
  in
  let kernels = Dspstone.Kernels.all @ Dspstone.Kernels.extended in
  let compiled =
    List.fold_left
      (fun acc (k : Dspstone.Kernels.t) ->
        match
          Record.Pipeline.compile ~options:Record.Options.record_ m
            (Dspstone.Kernels.prog k)
        with
        | exception Record.Pipeline.Error _ -> acc
        | c -> of_asm c.Record.Pipeline.layout c.Record.Pipeline.asm acc)
      [] kernels
  in
  if m.Target.Machine.name <> "tic25" then compiled
  else
    List.fold_left
      (fun acc (k : Dspstone.Kernels.t) ->
        of_asm (Dspstone.Handasm.layout_for k)
          (Dspstone.Handasm.find k.name)
          acc)
      compiled kernels

(* A generated machine cannot compile a loop, so its walking instructions
   are built here: every opcode with four operands, each an indirect on
   its own register (an opcode reads as many as its transfer has memory
   and immediate leaves, and ignores the rest), walking or not. *)
let netlist_walks st (m : Target.Machine.t) net =
  let layout = Target.Layout.make ~banks:[ "data" ] [ ("m", 64, "data") ] in
  List.concat_map
    (fun (t : Ise.Transfer.t) ->
      List.init 4 (fun _ ->
          let operands =
            List.init 4 (fun k ->
                let u =
                  match Random.State.int st 3 with
                  | 0 -> Target.Instr.No_update
                  | 1 -> Target.Instr.Post_inc
                  | _ -> Target.Instr.Post_dec
                in
                Target.Instr.Ind
                  (reg { Target.Instr.cls = "ix"; idx = k }, u, None))
          in
          (layout, Target.Instr.make t.Ise.Transfer.name ~operands)))
    (Ise.Extract.run net)
  |> List.filter (fun (_, i) -> has_walk i)
  |> List.map (fun p -> (m, p))

(* One step of an instruction whose walks [Mstate.updates_at_once] allows,
   against the queued reference: the same instruction with each address
   register also named bare in [uses] (which the semantics never read), so
   every walk queues and [apply_updates] runs after it.  Registers, memory
   and modes must come out equal, and the fast step must queue nothing. *)
let test_at_once_equals_queue () =
  let st = Random.State.make [| 27 |] in
  let bundled =
    List.concat_map
      (fun m -> List.map (fun p -> (m, p)) (walking_instrs m))
      (machines ())
  in
  let netlist net = netlist_walks st (Ise.Gen.machine net) net in
  (* a loop counter kept in memory through a walking register: read and
     written at one address ([Mstate.operand_adder]) *)
  let counters =
    let layout = Target.Layout.make ~banks:[ "data" ] [ ("m", 64, "data") ] in
    let dec opcode cls =
      let r = { Target.Instr.cls; idx = 0 } in
      (layout, Target.Instr.make opcode ~operands:[ post_inc r ])
    in
    [
      (machine, dec "BANZ" "ar");
      (Target.Asip.machine Target.Asip.default, dec "DJNZ" "ar");
      (Ise.Gen.machine Rtl.Samples.acc16, dec "DJNZ" "ix");
    ]
  in
  let pool =
    Array.of_list
      (bundled @ counters
      @ netlist Rtl.Samples.acc16
      @ netlist Rtl.Samples.mac16)
  in
  let ran = Hashtbl.create 8 in
  for _ = 1 to 3000 do
    let (m : Target.Machine.t), (layout, template) =
      pool.(Random.State.int st (Array.length pool))
    in
    let i = reshuffle st template in
    if not (Target.Mstate.queues_update i) then begin
      let ars = address_regs i in
      let reference =
        {
          i with
          Target.Instr.uses =
            i.Target.Instr.uses @ List.map (fun r -> Target.Instr.Reg r) ars;
        }
      in
      if not (Target.Mstate.queues_update reference) then
        Alcotest.failf "%s: a bare register still walks at once"
          (Target.Instr.to_string i);
      let size = Target.Layout.total_size layout in
      let mem = Array.init size (fun _ -> Random.State.int st 201 - 100) in
      let regs =
        List.map
          (fun r -> (r, Random.State.int st size))
          (List.sort_uniq compare
             (ars
             @ List.concat_map (operand_regs []) (instr_operands i)
             @ List.concat_map
                 (fun (c : Target.Regfile.cls) ->
                   List.init c.Target.Regfile.count (fun idx ->
                       { Target.Instr.cls = c.Target.Regfile.cls_name; idx }))
                 m.Target.Machine.regfile.Target.Regfile.classes))
      in
      let modes =
        List.map
          (fun (n, _) -> (n, Random.State.int st 2))
          m.Target.Machine.modes
      in
      let state () =
        let s = Target.Mstate.create ~layout ~modes () in
        Target.Mstate.copy_ints mem 0 s.Target.Mstate.mem 0 size;
        List.iter (fun (r, v) -> Target.Mstate.set_reg s r v) regs;
        s
      in
      let run instr after =
        let s = state () in
        match m.Target.Machine.semantics layout instr s with
        | () ->
          after s;
          Ok s
        | exception e -> Error (Printexc.to_string e)
      in
      let label = m.Target.Machine.name ^ ": " ^ Target.Instr.to_string i in
      match (run i ignore, run reference Target.Mstate.apply_updates) with
      | Ok fast, Ok slow ->
        Alcotest.(check int) (label ^ ": nothing queued") 0
          fast.Target.Mstate.pend_n;
        Alcotest.(check (array int)) (label ^ ": memory") slow.Target.Mstate.mem
          fast.Target.Mstate.mem;
        List.iter
          (fun (r, _) ->
            Alcotest.(check int)
              (label ^ ": "
              ^ Target.Instr.operand_to_string (Target.Instr.Reg r))
              (Target.Mstate.get_reg slow r) (Target.Mstate.get_reg fast r))
          regs;
        List.iter
          (fun (n, _) ->
            Alcotest.(check int) (label ^ ": mode " ^ n)
              (Target.Mstate.get_mode slow n) (Target.Mstate.get_mode fast n))
          modes;
        Hashtbl.replace ran m.Target.Machine.name ()
      | Error a, Error b -> Alcotest.(check string) (label ^ ": error") b a
      | Ok _, Error e | Error e, Ok _ ->
        Alcotest.failf "%s: only one side raised %s" label e
    end
  done;
  Alcotest.(check (list string))
    "every machine ran"
    [ "acc16"; "asip"; "dsp56"; "mac16"; "risc32"; "tic25" ]
    (List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) ran []))

(* Shapes that keep the queue, on both engines: two operands on one
   register, and a register named bare beside its walk.  Each reads the
   pre-instruction register everywhere, then the update lands. *)
let test_queued_shapes () =
  let layout =
    Target.Layout.make ~banks:[ "data" ]
      [ ("a", 4, "data"); ("y", 1, "data") ]
  in
  let base = Target.Layout.base_address layout (Ir.Mref.scalar "a") in
  let a1 = Target.Instr.Adr (Ir.Mref.elem "a" 1) in
  let y = Target.Instr.Dir (Ir.Mref.scalar "y") in
  let inputs = [ ("a", [| 5; 3; 4; 7 |]) ] in
  let check (m : Target.Machine.t) label shape items expect =
    Alcotest.(check bool) (label ^ " queues") true
      (Target.Mstate.queues_update shape);
    List.iter
      (fun engine ->
        let o =
          Sim.run ~engine m ~layout ~inputs
            (Target.Asm.make ~name:"queued" (List.map op items))
        in
        expect o.Sim.state)
      [ Sim.Interp; Sim.Compiled ]
  in
  (* asip squares a stream element: both operands read a[1] *)
  let asip = Target.Asip.machine Target.Asip.default in
  let acc0 = { Target.Instr.cls = "acc"; idx = 0 } in
  let ar0' = { Target.Instr.cls = "ar"; idx = 0 } in
  let mac =
    Target.Instr.make "MAC"
      ~operands:[ ind ar0'; post_inc ar0' ]
      ~defs:[ reg acc0 ]
      ~uses:[ reg acc0; ind ar0'; ind ar0' ]
  in
  check asip "MAC *ar0, *ar0+" mac
    [
      Target.Instr.make "LDAR" ~operands:[ reg ar0'; a1 ] ~defs:[ reg ar0' ];
      Target.Instr.make "LDI" ~operands:[ imm 10 ] ~defs:[ reg acc0 ];
      mac;
      Target.Instr.make "ST" ~operands:[ y ] ~defs:[ y ] ~uses:[ reg acc0 ];
    ]
    (fun s ->
      Alcotest.(check (array int)) "acc + a[1] * a[1]" [| 19 |]
        (Target.Mstate.get_var s "y");
      Alcotest.(check int) "ar0 walked once" (base + 2)
        (Target.Mstate.get_reg s ar0'));
  (* tic25 loads ar0 through itself: the load sees a[0], then ar0 moves *)
  let lark_self = lark [ reg ar0; post_inc ar0 ] in
  check machine "LARK ar0, *ar0+" lark_self
    [ Target.Instr.make "LARK" ~operands:[ reg ar0; adr "a" ]; lark_self ]
    (fun s ->
      Alcotest.(check int) "ar0 = a[0] + 1" 6 (Target.Mstate.get_reg s ar0));
  (* risc32 loads g1 through itself, the bare register in [defs] *)
  let g1 = { Target.Instr.cls = "g"; idx = 1 } in
  let lw =
    Target.Instr.make "LW" ~operands:[ post_inc g1 ] ~defs:[ reg g1 ]
      ~uses:[ ind g1 ]
  in
  check Target.Risc32.machine "LW g1, *g1+" lw
    [ Target.Instr.make "LA" ~operands:[ reg g1; adr "a" ]; lw ]
    (fun s ->
      Alcotest.(check int) "g1 = a[0] + 1" 6 (Target.Mstate.get_reg s g1));
  Alcotest.(check bool) "RPTMAC #2, *ar0+, *ar0+ queues" true
    (Target.Mstate.queues_update
       (Target.Instr.make "RPTMAC"
          ~operands:[ imm 2; post_inc ar0; post_inc ar0 ]))

(* ---- loop bodies as one closure ------------------------------------------ *)

(* Hand-built tic25 loops beside a DFL twin: both engines and [Ir.Eval] on
   the twin must produce the same outputs. *)
let check_loop ~name ~decls ~inputs ~twin items =
  let layout = Target.Layout.make ~banks:[ "data" ] decls in
  let asm = Target.Asm.make ~name items in
  let prog = Dfl.Lower.source twin in
  let want = Ir.Eval.run_with_inputs ~width:16 prog inputs in
  List.iter
    (fun (label, engine) ->
      let o = Sim.run ~engine machine ~layout ~inputs asm in
      List.iter
        (fun (out, values) ->
          Alcotest.(check (array int))
            (Printf.sprintf "%s, %s: %s" name label out)
            values
            (Target.Mstate.get_var o.Sim.state out))
        want)
    [ ("interp", Sim.Interp); ("compiled", Sim.Compiled) ]

let test_loop_bodies () =
  let st = Random.State.make [| 13 |] in
  let data n = Array.init n (fun _ -> Random.State.int st 7 - 3) in
  let trips = 6 in
  let ar j = Target.Tic25.ar j in
  let zac = Target.Instr.make "ZAC" in
  let add o = Target.Instr.make "ADD" ~operands:[ o ] in
  let sacl o = Target.Instr.make "SACL" ~operands:[ o ] ~defs:[ o ] in
  let y = Target.Instr.Dir (Ir.Mref.scalar "y") in
  let loop count body = Target.Asm.Loop { ivar = None; count; body } in
  (* bodies of 1 to 13 steps, step j adding stream x<j> *)
  for n = 1 to 13 do
    let xs = List.init n (fun j -> Printf.sprintf "x%d" j) in
    check_loop
      ~name:(Printf.sprintf "body of %d" n)
      ~decls:(List.map (fun x -> (x, trips, "data")) xs @ [ ("y", 1, "data") ])
      ~inputs:(List.map (fun x -> (x, data trips)) xs)
      ~twin:
        (Printf.sprintf
           "program body;\ninput %s;\noutput y;\nbegin\n  y = 0;\n\
            \  for i = 0 to %d do\n    y = y%s;\n  end;\nend\n"
           (String.concat ", "
              (List.map (fun x -> Printf.sprintf "%s[%d]" x trips) xs))
           (trips - 1)
           (String.concat "" (List.map (fun x -> " + " ^ x ^ "[i]") xs)))
      (List.mapi (fun j x -> op (lark [ reg (ar j); adr x ])) xs
      @ [
          op zac;
          loop trips (List.mapi (fun j _ -> op (add (post_inc (ar j)))) xs);
          op (sacl y);
        ])
  done;
  (* a nested loop: the inner walk restarts every outer trip *)
  check_loop ~name:"nested loop"
    ~decls:[ ("x", 4, "data"); ("z", 3, "data"); ("y", 1, "data") ]
    ~inputs:[ ("x", data 4); ("z", data 3) ]
    ~twin:
      "program nested;\ninput x[4], z[3];\noutput y;\nbegin\n  y = 0;\n\
      \  for i = 0 to 2 do\n    for j = 0 to 3 do\n      y = y + x[j];\n\
      \    end;\n    y = y + z[i];\n  end;\nend\n"
    [
      op (lark [ reg (ar 1); adr "z" ]);
      op zac;
      loop 3
        [
          op (lark [ reg (ar 0); adr "x" ]);
          loop 4 [ op (add (post_inc (ar 0))) ];
          op (add (post_inc (ar 1)));
        ];
      op (sacl y);
    ];
  (* a mode check left to run time: SOVM and ROVM run bare, without a
     [mode_set], so the translator knows nothing of OVM inside the body *)
  check_loop ~name:"mode check in the body"
    ~decls:[ ("x", trips, "data"); ("y", 1, "data") ]
    ~inputs:[ ("x", data trips) ]
    ~twin:
      (Printf.sprintf
         "program modes;\ninput x[%d];\noutput y;\nbegin\n  y = 0;\n\
          \  for i = 0 to %d do\n    y = sat(sat(-y) + x[i]);\n  end;\nend\n"
         trips (trips - 1))
    [
      op (lark [ reg (ar 0); adr "x" ]);
      op zac;
      loop trips
        [
          op (Target.Instr.make "SOVM");
          op sat_neg;
          op (add (post_inc (ar 0)));
          op (Target.Instr.make "ROVM");
        ];
      op (sacl y);
    ];
  (* a parallel word: the store sees the sum its slot-mate just formed *)
  check_loop ~name:"par word in the body"
    ~decls:[ ("x", trips, "data"); ("y", trips, "data") ]
    ~inputs:[ ("x", data trips) ]
    ~twin:
      (Printf.sprintf
         "program par;\ninput x[%d];\noutput y[%d];\nvar s;\nbegin\n\
          \  s = 0;\n  for i = 0 to %d do\n    s = s + x[i];\n\
          \    y[i] = s;\n  end;\nend\n"
         trips trips (trips - 1))
    [
      op (lark [ reg (ar 0); adr "x" ]);
      op (lark [ reg (ar 1); adr "y" ]);
      op zac;
      loop trips
        [
          Target.Asm.Par
            [ add (post_inc (ar 0)); sacl (post_inc (ar 1)) ];
        ];
    ]

let suites =
  [
    ( "sim.diff",
      [
        Alcotest.test_case "kernels x machines x options" `Quick
          test_kernels_all_machines;
        Alcotest.test_case "hand assemblies" `Quick test_hand_assemblies;
        Alcotest.test_case "fuzz corpus (500 seeded cases)" `Slow
          test_fuzz_corpus;
        Alcotest.test_case "looped kernels at N = 1,000 and 3,999" `Quick
          test_long_kernels;
      ] );
    ( "sim.engine-props",
      [
        Alcotest.test_case "post-modify at instruction boundary" `Quick
          test_post_modify_boundary;
        Alcotest.test_case "rptmac reads pre-instruction register" `Quick
          test_rptmac_stride;
        Alcotest.test_case "par bundle costs one cycle" `Quick
          test_par_costs_one_cycle;
        Alcotest.test_case "mode trip at same point in a loop" `Quick
          test_mode_trip_same_point_in_loop;
        Alcotest.test_case "hoisted mode check still correct" `Quick
          test_mode_hoisted_when_static;
        Alcotest.test_case "dead loop skipped by both engines" `Quick
          test_dead_loop_skipped;
        Alcotest.test_case "plan shared across 4 domains" `Quick
          test_plan_shared_across_domains;
        Alcotest.test_case "unresolved address fails when it runs" `Quick
          test_unresolved_address_fails_at_run;
        Alcotest.test_case "bad inputs fail alike" `Quick
          test_bad_inputs_fail_alike;
        Alcotest.test_case "post-modify at once equals the queue" `Quick
          test_at_once_equals_queue;
        Alcotest.test_case "shapes that keep the queue" `Quick
          test_queued_shapes;
        Alcotest.test_case "loop bodies of 1 to 13 steps, nested, mode, par"
          `Quick test_loop_bodies;
        Alcotest.test_case "a mode the machine does not declare reads 0"
          `Quick test_undeclared_mode;
        Alcotest.test_case "past the layout fails on a longer block" `Quick
          test_bounds_after_large_run;
        Alcotest.test_case "a failed run leaves no data behind" `Quick
          test_run_after_failure;
        Alcotest.test_case "domains and threads borrow apart" `Quick
          test_concurrent_borrowers;
        Alcotest.test_case "Sim.run's state outlives later jobs" `Quick
          test_escaping_state_intact;
        Alcotest.test_case "a job allocates no data image" `Quick
          test_execute_allocates_no_image;
      ] );
  ]
