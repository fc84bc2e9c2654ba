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
      ] );
  ]
