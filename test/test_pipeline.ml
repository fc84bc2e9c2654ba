(* End-to-end pipeline tests: compile IR programs for the bundled machines
   with both the RECORD and the conventional configuration, simulate, and
   compare against the reference interpreter. *)

let machines () =
  [
    Target.Tic25.machine;
    Target.Dsp56.machine;
    Target.Risc32.machine;
    Target.Asip.machine Target.Asip.default;
    Target.Asip.machine ~name:"asip_min"
      {
        Target.Asip.accumulators = 1;
        has_multiplier = false;
        has_mac = false;
        has_saturation = false;
        imm_bits = 6;
        address_regs = 4;
      };
    Target.Asip.machine ~name:"asip_max"
      {
        Target.Asip.accumulators = 2;
        has_multiplier = true;
        has_mac = true;
        has_saturation = true;
        imm_bits = 12;
        address_regs = 8;
      };
  ]

let check_machine_wellformed m =
  match Target.Machine.check m with
  | Ok () -> ()
  | Error msg -> Alcotest.failf "%s: %s" m.Target.Machine.name msg

let test_machines_wellformed () = List.iter check_machine_wellformed (machines ())

(* Compile with given options, execute, compare all outputs with Eval. *)
let check_against_eval ?(options = Record.Options.record_) machine prog inputs =
  let compiled = Record.Pipeline.compile ~options machine prog in
  let got, _cycles = Record.Pipeline.execute compiled ~inputs in
  let expected = Ir.Eval.run_with_inputs prog inputs in
  List.iter
    (fun (name, values) ->
      let actual = List.assoc name got in
      Alcotest.(check (array int))
        (Printf.sprintf "%s/%s output %s" machine.Target.Machine.name
           prog.Ir.Prog.name name)
        values actual)
    expected;
  compiled

let both_options = [ ("record", Record.Options.record_); ("conv", Record.Options.conventional) ]

let check_both machine prog inputs =
  List.map
    (fun (label, options) ->
      (label, check_against_eval ~options machine prog inputs))
    both_options

(* ---- Programs ---------------------------------------------------------- *)

let p_scalar_add =
  Ir.Prog.make ~name:"scalar_add"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "c";
      ]
    [ Ir.Prog.assign (Ir.Mref.scalar "c") Ir.Tree.(var "a" + var "b") ]

let p_mac =
  Ir.Prog.make ~name:"mac"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "c";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "d";
      ]
    [ Ir.Prog.assign (Ir.Mref.scalar "d") Ir.Tree.(var "c" + (var "a" * var "b")) ]

let p_loop_sum =
  Ir.Prog.make ~name:"loop_sum"
    ~decls:
      [
        Ir.Prog.array_decl ~storage:Ir.Prog.Input "xs" 8;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "s";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "s") (Ir.Tree.const 0);
      Ir.Prog.loop "i" 8
        [
          Ir.Prog.assign (Ir.Mref.scalar "s")
            Ir.Tree.(var "s" + ref_ (Ir.Mref.induct "xs" ~ivar:"i"));
        ];
    ]

let p_dot =
  Ir.Prog.make ~name:"dot"
    ~decls:
      [
        Ir.Prog.array_decl ~storage:Ir.Prog.Input "a" 6;
        Ir.Prog.array_decl ~storage:Ir.Prog.Input "b" 6;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "z";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "z") (Ir.Tree.const 0);
      Ir.Prog.loop "i" 6
        [
          Ir.Prog.assign (Ir.Mref.scalar "z")
            Ir.Tree.(
              var "z"
              + ref_ (Ir.Mref.induct "a" ~ivar:"i")
                * ref_ (Ir.Mref.induct "b" ~ivar:"i"));
        ];
    ]

let p_sat =
  Ir.Prog.make ~name:"sat_add"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "plain";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "clamped";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "plain") Ir.Tree.(var "a" + var "b");
      Ir.Prog.assign (Ir.Mref.scalar "clamped")
        Ir.Tree.(sat (var "a" + var "b"));
    ]

let p_shift_scale =
  Ir.Prog.make ~name:"shift_scale"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "x";
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y";
      ]
    [ Ir.Prog.assign (Ir.Mref.scalar "y") Ir.Tree.(var "x" * const 8 + var "x") ]

let p_nested =
  Ir.Prog.make ~name:"nested"
    ~decls:
      [
        Ir.Prog.array_decl ~storage:Ir.Prog.Input "m" 12;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "s";
      ]
    [
      Ir.Prog.assign (Ir.Mref.scalar "s") (Ir.Tree.const 0);
      Ir.Prog.loop "i" 3
        [
          Ir.Prog.loop "j" 4
            [
              Ir.Prog.assign (Ir.Mref.scalar "s")
                Ir.Tree.(var "s" + ref_ (Ir.Mref.induct "m" ~ivar:"j"));
            ];
        ];
    ]

(* ---- Tests ------------------------------------------------------------- *)

let test_scalar_add () =
  List.iter
    (fun machine ->
      ignore (check_both machine p_scalar_add [ ("a", [| 3 |]); ("b", [| 9 |]) ]))
    (machines ())

let test_mac_uses_multiplier () =
  let compiled =
    check_against_eval Target.Tic25.machine p_mac
      [ ("a", [| 7 |]); ("b", [| -3 |]); ("c", [| 100 |]) ]
  in
  (* RECORD should find LT/MPY/APAC and never spill. *)
  let opcodes = ref [] in
  Target.Asm.iter
    (fun i -> opcodes := i.Target.Instr.opcode :: !opcodes)
    compiled.Record.Pipeline.asm;
  Alcotest.(check bool) "uses APAC" true (List.mem "APAC" !opcodes);
  Alcotest.(check bool) "uses MPY" true (List.mem "MPY" !opcodes)

let test_loop_sum () =
  List.iter
    (fun machine ->
      ignore
        (check_both machine p_loop_sum
           [ ("xs", [| 1; -2; 3; -4; 5; -6; 7; -8 |]) ]))
    (machines ())

let test_dot () =
  List.iter
    (fun machine ->
      ignore
        (check_both machine p_dot
           [ ("a", [| 1; 2; 3; 4; 5; 6 |]); ("b", [| 6; 5; 4; 3; 2; 1 |]) ]))
    (machines ())

let test_sat () =
  List.iter
    (fun machine ->
      ignore
        (check_both machine p_sat [ ("a", [| 30000 |]); ("b", [| 20000 |]) ]))
    (machines ())

let test_shift_scale () =
  List.iter
    (fun machine ->
      ignore (check_both machine p_shift_scale [ ("x", [| 11 |]) ]))
    (machines ())

let test_nested_loops () =
  List.iter
    (fun machine ->
      ignore
        (check_both machine p_nested
           [ ("m", [| 1; 2; 3; 4; 5; 6; 7; 8; 9; 10; 11; 12 |]) ]))
    (machines ())

let test_record_not_larger () =
  (* RECORD code is never larger than the conventional compiler's. *)
  List.iter
    (fun prog ->
      let rec_words =
        Record.Pipeline.words (Record.Pipeline.compile Target.Tic25.machine prog)
      in
      let conv_words =
        Record.Pipeline.words
          (Record.Pipeline.compile ~options:Record.Options.conventional Target.Tic25.machine
             prog)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %d <= %d" prog.Ir.Prog.name rec_words conv_words)
        true (rec_words <= conv_words))
    [ p_scalar_add; p_mac; p_loop_sum; p_dot; p_sat; p_shift_scale ]

let test_stats_populated () =
  let c = Record.Pipeline.compile Target.Tic25.machine p_dot in
  Alcotest.(check bool) "variants tried" true (c.Record.Pipeline.stats.variants_tried > 0);
  Alcotest.(check bool) "cover cost" true (c.Record.Pipeline.stats.cover_cost > 0);
  Alcotest.(check bool) "agu streams" true (c.Record.Pipeline.stats.agu_streams >= 2)

let test_error_on_unknown_var () =
  let bad =
    { Ir.Prog.name = "bad";
      decls = [];
      body = [ Ir.Prog.assign (Ir.Mref.scalar "q") (Ir.Tree.const 0) ] }
  in
  Alcotest.check_raises "invalid program"
    (Record.Pipeline.Error "invalid program: undeclared variable q") (fun () ->
      ignore (Record.Pipeline.compile Target.Tic25.machine bad))

let suites =
  [
    ( "pipeline",
      [
        Alcotest.test_case "machines well-formed" `Quick test_machines_wellformed;
        Alcotest.test_case "scalar add" `Quick test_scalar_add;
        Alcotest.test_case "mac uses multiplier" `Quick test_mac_uses_multiplier;
        Alcotest.test_case "loop sum" `Quick test_loop_sum;
        Alcotest.test_case "dot product" `Quick test_dot;
        Alcotest.test_case "saturation" `Quick test_sat;
        Alcotest.test_case "shift scale" `Quick test_shift_scale;
        Alcotest.test_case "nested loops" `Quick test_nested_loops;
        Alcotest.test_case "record never larger" `Quick test_record_not_larger;
        Alcotest.test_case "stats populated" `Quick test_stats_populated;
        Alcotest.test_case "unknown variable" `Quick test_error_on_unknown_var;
      ] );
  ]

(* ---- Random-program differential testing --------------------------------- *)

(* Random DSP-ish programs. Multiplications and shifts take leaf operands
   only, keeping every within-statement intermediate far from the 16-bit
   boundary (the fixed-point contract, DESIGN.md §4); statement stores wrap
   identically in the interpreter and on the machines. *)
let gen_prog =
  let open QCheck.Gen in
  let scalar_leaf =
    oneof
      [
        map (fun k -> Ir.Tree.Const k) (int_range 0 5);
        map Ir.Tree.var (oneofl [ "a"; "b"; "u"; "v"; "w" ]);
      ]
  in
  let leaf ~ivar =
    match ivar with
    | None -> scalar_leaf
    | Some iv ->
      oneof
        [
          scalar_leaf;
          map
            (fun base -> Ir.Tree.ref_ (Ir.Mref.induct base ~ivar:iv))
            (oneofl [ "p"; "q" ]);
        ]
  in
  let tree ~ivar =
    sized_size (int_range 0 12)
      (fix (fun self n ->
           if n = 0 then leaf ~ivar
           else
             oneof
               [
                 leaf ~ivar;
                 (* wide ops recurse; narrow ops take leaves *)
                 map2
                   (fun op (x, y) -> Ir.Tree.Binop (op, x, y))
                   (oneofl Ir.Op.[ Add; Sub; And; Or; Xor ])
                   (pair (self (n / 2)) (self (n / 2)));
                 map2
                   (fun (x, y) op -> Ir.Tree.Binop (op, x, y))
                   (pair (leaf ~ivar) (leaf ~ivar))
                   (oneofl Ir.Op.[ Mul ]);
                 map2
                   (fun x k -> Ir.Tree.Binop (Ir.Op.Shl, x, Ir.Tree.Const k))
                   (leaf ~ivar) (int_range 0 3);
                 map (fun x -> Ir.Tree.Unop (Ir.Op.Neg, x)) (self (n / 2));
                 map (fun x -> Ir.Tree.Unop (Ir.Op.Sat, x)) (self (n / 2));
               ]))
  in
  let stmt ~ivar =
    let dst =
      match ivar with
      | None -> map Ir.Mref.scalar (oneofl [ "u"; "v"; "w" ])
      | Some iv ->
        oneof
          [
            map Ir.Mref.scalar (oneofl [ "u"; "v"; "w" ]);
            map (fun base -> Ir.Mref.induct base ~ivar:iv) (oneofl [ "p"; "q" ]);
          ]
    in
    map2 (fun d t -> Ir.Prog.assign d t) dst (tree ~ivar)
  in
  let item idx =
    oneof
      [
        stmt ~ivar:None;
        (let iv = Printf.sprintf "i%d" idx in
         map2
           (fun count body -> Ir.Prog.loop iv count body)
           (int_range 1 8)
           (list_size (int_range 1 3) (stmt ~ivar:(Some iv))));
      ]
  in
  let* n = int_range 1 4 in
  let rec items k =
    if k >= n then return []
    else
      let* i = item k in
      let* rest = items (k + 1) in
      return (i :: rest)
  in
  items 0

let random_prog_decls =
  [
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "a";
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "b";
    Ir.Prog.array_decl ~storage:Ir.Prog.Input "p" 8;
    Ir.Prog.array_decl ~storage:Ir.Prog.Input "q" 8;
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "u";
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "v";
    Ir.Prog.scalar_decl ~storage:Ir.Prog.Temp "w";
  ]

let random_inputs =
  [
    ("a", [| 3 |]);
    ("b", [| -4 |]);
    ("p", [| 1; -2; 3; -4; 5; 0; 2; -1 |]);
    ("q", [| -5; 4; -3; 2; -1; 0; 1; 3 |]);
  ]

(* The fixed-point programming contract (DESIGN.md §4): every intermediate
   value fits the 16-bit range, except the direct argument of a sat (the
   value saturation exists to clamp). Programs outside the contract are not
   valid fixed-point code and are skipped by the property. *)
let within_contract (prog : Ir.Prog.t) inputs =
  let exception Overflow in
  let cells = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.Prog.decl) -> Hashtbl.replace cells d.name (Array.make d.size 0))
    prog.Ir.Prog.decls;
  List.iter
    (fun (name, values) ->
      Array.blit values 0 (Hashtbl.find cells name) 0 (Array.length values))
    inputs;
  let fits v = v >= -32768 && v <= 32767 in
  let addr ivals (r : Ir.Mref.t) =
    let cell = Hashtbl.find cells r.base in
    let idx =
      match r.index with
      | Ir.Mref.Direct -> 0
      | Ir.Mref.Elem k -> k
      | Ir.Mref.Induct { ivar; offset; step } ->
        offset + (step * List.assoc ivar ivals)
    in
    (cell, idx)
  in
  (* [top] marks a value whose overflow is acceptable (fed to sat or about
     to be wrapped by the statement store). *)
  let rec eval ~top ivals t =
    let v =
      match t with
      | Ir.Tree.Const k -> k
      | Ir.Tree.Ref r ->
        let cell, idx = addr ivals r in
        cell.(idx)
      | Ir.Tree.Unop (Ir.Op.Sat, a) ->
        Ir.Op.eval_unop Ir.Op.Sat ~width:16 (eval ~top:true ivals a)
      | Ir.Tree.Unop (op, a) ->
        Ir.Op.eval_unop op ~width:16 (eval ~top:false ivals a)
      | Ir.Tree.Binop (op, a, b) ->
        Ir.Op.eval_binop op (eval ~top:false ivals a) (eval ~top:false ivals b)
    in
    if (not top) && not (fits v) then raise Overflow;
    v
  in
  let rec item ivals = function
    | Ir.Prog.Stmt { dst; src } ->
      let v = eval ~top:true ivals src in
      let cell, idx = addr ivals dst in
      cell.(idx) <- Ir.Eval.wrap ~width:16 v
    | Ir.Prog.Loop { ivar; count; body } ->
      for i = 0 to count - 1 do
        List.iter (item ((ivar, i) :: ivals)) body
      done
  in
  match List.iter (item []) prog.Ir.Prog.body with
  | () -> true
  | exception Overflow -> false

let differential_prop machine options =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random programs: %s/%s == interpreter"
         machine.Target.Machine.name
         (match options.Record.Options.selection with
         | Record.Options.Naive_macro -> "conventional"
         | _ -> "RECORD"))
    ~count:120
    (QCheck.make
       ~print:(fun body ->
         Format.asprintf "%a" Ir.Prog.pp
           { Ir.Prog.name = "rand"; decls = random_prog_decls; body })
       gen_prog)
    (fun body ->
      let prog = { Ir.Prog.name = "rand"; decls = random_prog_decls; body } in
      match Ir.Prog.validate prog with
      | Error _ -> QCheck.assume_fail ()
      | Ok () when not (within_contract prog random_inputs) ->
        QCheck.assume_fail ()
      | Ok () ->
        let compiled = Record.Pipeline.compile ~options machine prog in
        let outs, cycles =
          Record.Pipeline.execute compiled ~inputs:random_inputs
        in
        let expected = Ir.Eval.run_with_inputs prog random_inputs in
        (* Outputs match the interpreter AND the static timing analysis is
           cycle-exact. *)
        List.for_all (fun (n, v) -> List.assoc n outs = v) expected
        && Record.Timing.cycles compiled = cycles)

let differential_suite =
  ( "pipeline.random",
    List.concat_map
      (fun machine ->
        [
          QCheck_alcotest.to_alcotest
            (differential_prop machine Record.Options.record_);
        ])
      (machines ())
    @ [
        QCheck_alcotest.to_alcotest
          (differential_prop Target.Tic25.machine Record.Options.conventional);
        QCheck_alcotest.to_alcotest
          (differential_prop Target.Risc32.machine Record.Options.conventional);
        (* A machine that exists only as text (the mdl library). *)
        QCheck_alcotest.to_alcotest
          (differential_prop
             (Mdl.load
                "machine mdl_rand\nregister acc\nregister t\n\
                 counter idx 4\nagu 3\n\
                 rule ld acc <- mem\nrule st mem <- acc\n\
                 rule ldi acc <- imm8\nrule zero acc <- 0\n\
                 rule add acc <- add(acc, mem)\n\
                 rule sub acc <- sub(acc, mem)\n\
                 rule and acc <- and(acc, mem)\n\
                 rule or acc <- or(acc, mem)\n\
                 rule xor acc <- xor(acc, mem)\n\
                 rule lt t <- mem\nrule mpy acc <- mul(t, mem)\n\
                 rule mac acc <- add(acc, mul(t, mem))\n\
                 rule neg acc <- neg(acc)\nrule not acc <- not(acc)\n\
                 rule sat acc <- sat(acc)\n\
                 rule shl acc <- shl(acc, imm4)\n\
                 rule shr acc <- shr(acc, imm4)")
             Record.Options.record_);
      ] )

let suites = suites @ [ differential_suite ]

(* ---- Constant pool ----------------------------------------------------------- *)

let test_constant_pool () =
  (* A constant that is neither an immediate form nor cheap through the
     accumulator lands in a pool cell initialized at load time. *)
  let prog =
    Dfl.Lower.source
      "program cp; input x; output y; begin y = x * 100; end"
  in
  let c = Record.Pipeline.compile Target.Tic25.machine prog in
  let outs, _ = Record.Pipeline.execute c ~inputs:[ ("x", [| 7 |]) ] in
  Alcotest.(check int) "result" 700 (List.assoc "y" outs).(0);
  (* 100 exceeds MPYK's range on nothing — it fits; force a wide constant. *)
  let prog2 =
    Dfl.Lower.source
      "program cp2; input x; output y; begin y = x * 9999; end"
  in
  let c2 = Record.Pipeline.compile Target.Tic25.machine prog2 in
  Alcotest.(check bool) "pool used" true
    (List.exists (fun (_, v) -> v = 9999) c2.Record.Pipeline.pool);
  let outs2, _ = Record.Pipeline.execute c2 ~inputs:[ ("x", [| 3 |]) ] in
  Alcotest.(check int) "wide multiply" 29997 (List.assoc "y" outs2).(0)

let test_constant_pool_dedup () =
  let prog =
    Dfl.Lower.source
      "program cp3; input a, b; output u, v;\n\
       begin u = a * 9999; v = b * 9999; end"
  in
  let c = Record.Pipeline.compile Target.Tic25.machine prog in
  Alcotest.(check int) "one cell for one value" 1
    (List.length c.Record.Pipeline.pool)

let pool_suite =
  ( "pipeline.pool",
    [
      Alcotest.test_case "constant pool" `Quick test_constant_pool;
      Alcotest.test_case "pool deduplication" `Quick test_constant_pool_dedup;
    ] )

let suites = suites @ [ pool_suite ]

(* ---- Full loop unrolling ------------------------------------------------- *)

let test_unroll_kernels_validate () =
  let options = Record.Options.with_unrolling 16 Record.Options.record_ in
  List.iter
    (fun name ->
      let k = Dspstone.Kernels.find name in
      let prog = Dspstone.Kernels.prog k in
      let c = Record.Pipeline.compile ~options Target.Tic25.machine prog in
      let outs, cycles = Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs in
      let expected = Dspstone.Kernels.reference_outputs k in
      List.iter
        (fun (n, v) ->
          Alcotest.(check (array int)) (name ^ "/" ^ n) v (List.assoc n outs))
        expected;
      (* Unrolled code must be at least as fast (no loop overhead). *)
      let rolled = Record.Pipeline.compile Target.Tic25.machine prog in
      let _, rolled_cycles =
        Record.Pipeline.execute rolled ~inputs:k.Dspstone.Kernels.inputs
      in
      Alcotest.(check bool) (name ^ " not slower") true (cycles <= rolled_cycles))
    [ "dot_product"; "n_real_updates"; "matrix_1x3"; "fir"; "convolution" ]

let test_unroll_nested () =
  (* Inner loop unrolls, outer survives when over the limit. *)
  let prog =
    Dfl.Lower.source
      "program n; input m[12]; output s;\n\
       begin s = 0;\n\
       for i = 0 to 5 do\n\
       for j = 0 to 1 do s = s + m[j]; end;\n\
       end;\n\
       end"
  in
  let options = Record.Options.with_unrolling 4 Record.Options.record_ in
  let c = Record.Pipeline.compile ~options Target.Tic25.machine prog in
  let inputs = [ ("m", Array.init 12 (fun i -> i)) ] in
  let outs, _ = Record.Pipeline.execute c ~inputs in
  Alcotest.(check int) "nested result" 6 (List.assoc "s" outs).(0);
  (* The outer loop (6 > 4) is still a loop in the listing. *)
  let has_loop = ref false in
  let scan = function
    | Target.Asm.Loop _ -> has_loop := true
    | Target.Asm.Op _ | Target.Asm.Par _ -> ()
  in
  List.iter scan c.Record.Pipeline.asm.Target.Asm.items;
  Alcotest.(check bool) "outer loop kept" true !has_loop

let unroll_random =
  let options = Record.Options.with_unrolling 8 Record.Options.record_ in
  differential_prop Target.Tic25.machine options

let unroll_suite =
  ( "pipeline.unroll",
    [
      Alcotest.test_case "kernels validate unrolled" `Quick
        test_unroll_kernels_validate;
      Alcotest.test_case "nested loops" `Quick test_unroll_nested;
      QCheck_alcotest.to_alcotest unroll_random;
    ] )

let suites = suites @ [ unroll_suite ]

(* ---- Allocation scaling ------------------------------------------------ *)

(* Words allocated while [f] runs: [Gc.minor_words] (on OCaml 5 the minor
   count of [Gc.counters] is only exact at a collection) plus the words
   allocated directly in the major heap. *)
let allocated_words f =
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  ignore (Sys.opaque_identity (f ()));
  words () -. before

(* [v = v + a;] n times. *)
let straight_line prefix n =
  let a = prefix ^ "a" and v = prefix ^ "v" in
  Ir.Prog.make ~name:"straight_line"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input a;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output v;
      ]
    (List.init n (fun _ ->
         Ir.Prog.assign (Ir.Mref.scalar v) Ir.Tree.(var v + var a)))

(* One statement [y = a + b + a + ...] with n terms. *)
let long_statement prefix n =
  let a = prefix ^ "a" and b = prefix ^ "b" and y = prefix ^ "y" in
  let term k = Ir.Tree.var (if k mod 2 = 0 then a else b) in
  let rec sum k acc =
    if k = n then acc else sum (k + 1) Ir.Tree.(acc + term k)
  in
  Ir.Prog.make ~name:"long_statement"
    ~decls:
      [
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input a;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Input b;
        Ir.Prog.scalar_decl ~storage:Ir.Prog.Output y;
      ]
    [ Ir.Prog.assign (Ir.Mref.scalar y) (sum 1 (term 0)) ]

(* An 8x longer program may allocate at most 12x the words (8x is linear).
   Every compilation names its variables after (machine, shape, option set,
   n), so no kept variant search answers it and the matcher's labels start
   cold each time.
   Left out until the variant search is linear too: the long statement
   under [record_] (24-55x). *)
let max_growth = 12.0

let check_growth label ~input ~run =
  let small = input 100 and large = input 800 in
  let small_words = allocated_words (fun () -> run small) in
  let large_words = allocated_words (fun () -> run large) in
  let growth = large_words /. small_words in
  if growth > max_growth then
    Alcotest.failf "%s: %.0f words at n = 100, %.0f at n = 800: %.1fx > %.0fx"
      label small_words large_words growth max_growth

let test_compile_scaling (shape, program) (oname, options) machines () =
  List.iter
    (fun (m : Target.Machine.t) ->
      check_growth
        (Printf.sprintf "%s %s on %s" shape oname m.name)
        ~input:(fun n ->
          program (Printf.sprintf "%s_%s_%s_%d_" m.name shape oname n) n)
        ~run:
          (Record.Pipeline.compile ~options
             ~matcher:(Driver.Registry.matcher_for m) m))
    machines

let test_pair_weights_scaling () =
  check_growth "pair_weights on the long statement"
    ~input:(fun n -> long_statement (Printf.sprintf "weights_%d_" n) n)
    ~run:Opt.Membank.pair_weights

let scaling_suite =
  let all = Driver.Registry.machines () in
  let line = ("line", straight_line) and long = ("long", long_statement) in
  let record = ("record", Record.Options.record_)
  and conv = ("conventional", Record.Options.conventional) in
  let case name shape options machines =
    Alcotest.test_case name `Quick (test_compile_scaling shape options machines)
  in
  ( "pipeline.scaling",
    [
      case "straight-line program, conventional" line conv all;
      case "straight-line program, record" line record all;
      case "long statement, conventional" long conv all;
      Alcotest.test_case "bank-assignment pair weights" `Quick
        test_pair_weights_scaling;
    ] )

let suites = suites @ [ scaling_suite ]
