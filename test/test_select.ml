(* Tests for the lib/select DAG-covering subsystem: cross-tree value
   reuse (LVN), shared-subtree materialization (cuts), and tree-vs-dag
   differential parity against the reference interpreter. *)

let tic25 = Target.Tic25.machine

let machines =
  [
    Target.Tic25.machine;
    Target.Dsp56.machine;
    Target.Risc32.machine;
    Target.Asip.machine Target.Asip.default;
  ]

let mode_options mode =
  Record.Options.with_selection_mode mode Record.Options.record_

let tree_opts = mode_options Record.Options.Tree
let dag_opts = mode_options Record.Options.Dag

let opcodes items =
  let out = ref [] in
  let rec go = function
    | Target.Asm.Op i -> out := i.Target.Instr.opcode :: !out
    | Target.Asm.Par is ->
      List.iter (fun i -> out := i.Target.Instr.opcode :: !out) is
    | Target.Asm.Loop { body; _ } -> List.iter go body
  in
  List.iter go items;
  List.rev !out

let count_op op c =
  List.length
    (List.filter (( = ) op) (opcodes c.Record.Pipeline.asm.Target.Asm.items))

let check_outputs name (c : Record.Pipeline.compiled) prog inputs =
  let got, _cycles = Record.Pipeline.execute c ~inputs in
  let expected = Ir.Eval.run_with_inputs prog inputs in
  List.iter
    (fun (n, v) ->
      Alcotest.(check (array int)) (name ^ " output " ^ n) v (List.assoc n got))
    expected

(* ---- Cross-tree CSE through LVN ----------------------------------------- *)

(* Two statements sharing [a*b]: under Tree selection the source-level CSE
   pass cuts the product to a memory cell and pays the store/load
   round-trip; under DAG selection the run-local value numbering reuses
   the T and P registers the first statement left behind, which is
   strictly cheaper. *)
let p_shared_product =
  Ir.Prog.make ~name:"shared_product"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "c";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "d";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y1";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y2";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "y1")
        Ir.Tree.(var "c" + (var "a" * var "b"));
      Ir.Prog.assign (Ir.Mref.scalar "y2")
        Ir.Tree.(var "d" - (var "a" * var "b"));
    ]

let shared_product_inputs =
  [ ("a", [| 3 |]); ("b", [| 5 |]); ("c", [| 100 |]); ("d", [| 40 |]) ]

let test_cross_tree_cse () =
  let tree = Record.Pipeline.compile ~options:tree_opts tic25 p_shared_product in
  let dag = Record.Pipeline.compile ~options:dag_opts tic25 p_shared_product in
  check_outputs "tree" tree p_shared_product shared_product_inputs;
  check_outputs "dag" dag p_shared_product shared_product_inputs;
  let tw = Record.Pipeline.words tree and dw = Record.Pipeline.words dag in
  Alcotest.(check bool)
    (Printf.sprintf "dag (%d words) beats tree (%d words)" dw tw)
    true (dw < tw);
  Alcotest.(check bool) "cross-tree CSE counted" true
    (dag.Record.Pipeline.selection.Record.Pipeline.sel_cross_tree_cse >= 1);
  Alcotest.(check int) "single multiply survives" 1 (count_op "MPY" dag)

(* ---- Shared-subtree materialization (cuts) ------------------------------ *)

(* The 7-node subtree [a*b + c*d] is shared by both statements but its value
   lives in the accumulator, which the statement tails clobber — register
   reuse cannot carry it, so the planner's trial emission should find that a
   scratch-cell cut wins. *)
let p_shared_mac =
  Ir.Prog.make ~name:"shared_mac"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "c";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "d";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "e";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "f";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y1";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y2";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "y1")
        Ir.Tree.(var "e" + ((var "a" * var "b") + (var "c" * var "d")));
      Ir.Prog.assign (Ir.Mref.scalar "y2")
        Ir.Tree.(var "f" - ((var "a" * var "b") + (var "c" * var "d")));
    ]

let shared_mac_inputs =
  [
    ("a", [| 2 |]); ("b", [| 3 |]); ("c", [| 4 |]); ("d", [| 5 |]);
    ("e", [| 50 |]); ("f", [| 90 |]);
  ]

let test_dag_cut () =
  let tree = Record.Pipeline.compile ~options:tree_opts tic25 p_shared_mac in
  let dag = Record.Pipeline.compile ~options:dag_opts tic25 p_shared_mac in
  check_outputs "tree" tree p_shared_mac shared_mac_inputs;
  check_outputs "dag" dag p_shared_mac shared_mac_inputs;
  let tw = Record.Pipeline.words tree and dw = Record.Pipeline.words dag in
  Alcotest.(check bool)
    (Printf.sprintf "dag (%d words) no worse than tree (%d words)" dw tw)
    true (dw <= tw);
  let sel = dag.Record.Pipeline.selection in
  (* The planner must exploit the sharing one way or the other: a scratch
     cut, or cross-tree register reuse found cheaper by trial emission. *)
  Alcotest.(check bool) "sharing exploited" true
    (sel.Record.Pipeline.sel_dag_cuts >= 1
    || sel.Record.Pipeline.sel_cross_tree_cse >= 1)

(* A wide shared subtree used by three statements: recomputation costs three
   covers, a cut costs one store and two loads — the trial emitter must pick
   the cut. *)
let p_cut_three =
  Ir.Prog.make ~name:"cut_three"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "c";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "d";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y1";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y2";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y3";
      ]
    (let shared =
       Ir.Tree.((var "a" * var "b") + (var "c" * var "d"))
     in
     [
       Ir.Prog.assign (Ir.Mref.scalar "y1") Ir.Tree.(var "a" + shared);
       Ir.Prog.assign (Ir.Mref.scalar "y2") Ir.Tree.(var "b" - shared);
       Ir.Prog.assign (Ir.Mref.scalar "y3") Ir.Tree.(var "c" + shared);
     ])

let cut_three_inputs =
  [ ("a", [| 2 |]); ("b", [| 3 |]); ("c", [| 4 |]); ("d", [| 5 |]) ]

let test_dag_cut_three () =
  let tree = Record.Pipeline.compile ~options:tree_opts tic25 p_cut_three in
  let dag = Record.Pipeline.compile ~options:dag_opts tic25 p_cut_three in
  check_outputs "tree" tree p_cut_three cut_three_inputs;
  check_outputs "dag" dag p_cut_three cut_three_inputs;
  Alcotest.(check bool) "dag no worse" true
    (Record.Pipeline.words dag <= Record.Pipeline.words tree);
  let sel = dag.Record.Pipeline.selection in
  Alcotest.(check bool) "sharing exploited" true
    (sel.Record.Pipeline.sel_dag_cuts >= 1
    || sel.Record.Pipeline.sel_cross_tree_cse >= 1)

(* ---- Differential parity across modes ----------------------------------- *)

let modes = [ ("tree", tree_opts); ("dag", dag_opts) ]

let test_kernel_parity () =
  List.iter
    (fun machine ->
      List.iter
        (fun k ->
          let prog = Dspstone.Kernels.prog k in
          let inputs = k.Dspstone.Kernels.inputs in
          let expected = Ir.Eval.run_with_inputs prog inputs in
          List.iter
            (fun (mode, options) ->
              match Record.Pipeline.compile ~options machine prog with
              | c ->
                let got, _ = Record.Pipeline.execute c ~inputs in
                List.iter
                  (fun (n, v) ->
                    Alcotest.(check (array int))
                      (Printf.sprintf "%s/%s/%s output %s"
                         machine.Target.Machine.name prog.Ir.Prog.name mode n)
                      v (List.assoc n got))
                  expected
              | exception Record.Pipeline.Error _ ->
                (* "cannot compile" must then hold for every mode — tree
                   mode is checked by the main pipeline suite, so a mode
                   that *only* fails here would still surface. *)
                ())
            modes)
        Dspstone.Kernels.all)
    machines

let test_fuzz_parity () =
  let cases = Fuzz.Gen.cases ~seed:424242 ~count:60 () in
  List.iter
    (fun (case : Fuzz.Gen.case) ->
      List.iter
        (fun machine ->
          List.iter
            (fun (mode, options) ->
              let v = Fuzz.Oracle.check ~options machine case in
              match v with
              | Fuzz.Oracle.Pass _ | Fuzz.Oracle.Skipped_contract
              | Fuzz.Oracle.Cannot_compile _ ->
                ()
              | Fuzz.Oracle.Failed _ ->
                Alcotest.failf "seed %d index %d on %s under %s: %a"
                  case.Fuzz.Gen.seed case.Fuzz.Gen.index
                  machine.Target.Machine.name mode Fuzz.Oracle.pp_verdict v)
            modes)
        machines)
    cases

(* ---- Options plumbing ---------------------------------------------------- *)

let test_mode_digests_distinct () =
  let digests =
    List.map (fun (_, o) -> Record.Options.digest o) modes
  in
  Alcotest.(check int) "two distinct digests" 2
    (List.length (List.sort_uniq compare digests))

let test_mode_names () =
  List.iter
    (fun (name, opts) ->
      Alcotest.(check string) "name round-trips" name
        (Record.Options.selection_mode_name
           opts.Record.Options.selection_mode);
      Alcotest.(check bool) "of_string round-trips" true
        (Record.Options.selection_mode_of_string name
        = Some opts.Record.Options.selection_mode))
    modes;
  Alcotest.(check (list string)) "the table lists every mode"
    (List.map fst modes)
    (List.map fst Record.Options.selection_modes);
  Alcotest.(check bool) "unknown rejected" true
    (Record.Options.selection_mode_of_string "bogus" = None);
  Alcotest.(check bool) "removed exhaustive mode rejected" true
    (Record.Options.selection_mode_of_string "exhaustive" = None)

let suites =
  [
    ( "select dag",
      [
        Alcotest.test_case "cross-tree CSE via LVN" `Quick test_cross_tree_cse;
        Alcotest.test_case "shared subtree exploited" `Quick test_dag_cut;
        Alcotest.test_case "three-way sharing" `Quick test_dag_cut_three;
      ] );
    ( "select parity",
      [
        Alcotest.test_case "kernels x machines x modes" `Slow
          test_kernel_parity;
        Alcotest.test_case "seeded fuzz, every mode" `Slow test_fuzz_parity;
      ] );
    ( "select options",
      [
        Alcotest.test_case "mode digests distinct" `Quick
          test_mode_digests_distinct;
        Alcotest.test_case "mode names round-trip" `Quick test_mode_names;
      ] );
  ]
