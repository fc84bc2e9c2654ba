(* The differential oracle and campaign driver. *)

type failure_kind =
  | Miscompile
  | Timing_drift
  | Mode_trip
  | Exec_trip
  | Engine_divergence

type verdict =
  | Pass of { cycles : int; words : int }
  | Skipped_contract
  | Cannot_compile of string
  | Failed of { kind : failure_kind; detail : string }

let kind_name = function
  | Miscompile -> "MISCOMPILE"
  | Timing_drift -> "TIMING DRIFT"
  | Mode_trip -> "MODE VIOLATION"
  | Exec_trip -> "EXEC ERROR"
  | Engine_divergence -> "ENGINE DIVERGENCE"

(* ---- the fixed-point contract ------------------------------------------- *)

(* The interpreter evaluates with exact native integers and wraps at stores;
   real machines have accumulators of some particular width, home values to
   word-sized memory between statements, and may forward a wide register
   value across a store (the peephole's store/load forwarding).  All of
   these agree exactly on programs obeying the fixed-point programming
   contract (DESIGN.md §4): every value — including the one each statement
   stores — fits the signed word range.  Programs outside the contract have
   no single defined answer across those implementation choices, so the
   oracle skips them rather than classifying a legitimate width difference
   as a miscompile.

   [sat_headroom] is the one exception: the direct argument of a [sat] is
   the value saturation exists to clamp, so it may overflow — but only when
   the code generator keeps that value in a wide accumulator.  Under naive
   macro expansion every interior node is homed to a word-sized memory
   cell, which wraps the value before [sat] sees it, so for that option set
   the contract allows no headroom at all. *)
let within_contract ?(width = 16) ?(sat_headroom = true) (prog : Ir.Prog.t)
    inputs =
  let exception Overflow in
  let half = 1 lsl (width - 1) in
  let fits v = v >= -half && v < half in
  let cells = Hashtbl.create 16 in
  List.iter
    (fun (d : Ir.Prog.decl) ->
      Hashtbl.replace cells d.Ir.Prog.name (Array.make d.Ir.Prog.size 0))
    prog.Ir.Prog.decls;
  List.iter
    (fun (name, values) ->
      match Hashtbl.find_opt cells name with
      | Some cell -> Array.blit values 0 cell 0 (Array.length values)
      | None -> ())
    inputs;
  let addr ivals (r : Ir.Mref.t) =
    let cell = Hashtbl.find cells r.Ir.Mref.base in
    let idx =
      match r.Ir.Mref.index with
      | Ir.Mref.Direct -> 0
      | Ir.Mref.Elem k -> k
      | Ir.Mref.Induct { ivar; offset; step } ->
        offset + (step * List.assoc ivar ivals)
    in
    (cell, idx)
  in
  (* [top] marks a value whose overflow is acceptable: the direct argument
     of a sat (when the option set grants headroom). *)
  let rec eval ~top ivals t =
    let v =
      match t with
      | Ir.Tree.Const k -> k
      | Ir.Tree.Ref r ->
        let cell, idx = addr ivals r in
        cell.(idx)
      | Ir.Tree.Unop (Ir.Op.Sat, a) ->
        Ir.Op.eval_unop Ir.Op.Sat ~width (eval ~top:sat_headroom ivals a)
      | Ir.Tree.Unop (op, a) -> Ir.Op.eval_unop op ~width (eval ~top:false ivals a)
      | Ir.Tree.Binop (op, a, b) ->
        Ir.Op.eval_binop op (eval ~top:false ivals a) (eval ~top:false ivals b)
    in
    if (not top) && not (fits v) then raise Overflow;
    v
  in
  let rec item ivals = function
    | Ir.Prog.Stmt { dst; src } ->
      (* The stored value must itself fit: a later load would read the
         wrapped cell where store/load forwarding keeps the wide register
         value, so out-of-range stores are outside the contract. *)
      let v = eval ~top:false ivals src in
      let cell, idx = addr ivals dst in
      cell.(idx) <- Ir.Eval.wrap ~width v
    | Ir.Prog.Loop { ivar; count; body } ->
      for i = 0 to count - 1 do
        List.iter (item ((ivar, i) :: ivals)) body
      done
  in
  match List.iter (item []) prog.Ir.Prog.body with
  | () -> true
  | exception Overflow -> false

(* ---- one case, one machine, one option set ------------------------------- *)

let array_to_string vs =
  "[" ^ String.concat ", " (Array.to_list (Array.map string_of_int vs)) ^ "]"

let check ?cache ?(options = Record.Options.record_) machine (case : Gen.case) =
  let width = machine.Target.Machine.word_bits in
  let sat_headroom =
    match options.Record.Options.selection with
    | Record.Options.Naive_macro -> false
    | Record.Options.Optimal_variants -> true
  in
  if not (within_contract ~width ~sat_headroom case.Gen.prog case.Gen.inputs)
  then Skipped_contract
  else
    (* Compile through the driver's cache: a campaign re-checks each case
       on up to 8 machine×option combos and recompiles the surviving
       program once more per shrinking step, so the shrink loop and the
       final shrunk-verdict recompile are cache hits. *)
    match
      (Driver.Service.compile ?cache ~options machine case.Gen.prog)
        .Driver.Service.compiled
    with
    | exception Record.Pipeline.Error msg -> Cannot_compile msg
    | compiled -> (
      (* Execute under both engines, the second acting as an extra
         differential axis: outputs, cycles, and raised errors must agree
         exactly. *)
      let exec_with engine =
        match
          Record.Pipeline.execute ~engine compiled ~inputs:case.Gen.inputs
        with
        | outs, cycles -> Ok (outs, cycles)
        | exception Sim.Mode_violation msg -> Error (Mode_trip, msg)
        | exception Sim.Exec_error msg -> Error (Exec_trip, msg)
      in
      let result_str = function
        | Ok (outs, cycles) ->
          Printf.sprintf "ok: %d cycles, %s" cycles
            (String.concat "; "
               (List.map
                  (fun (n, vs) -> n ^ "=" ^ array_to_string vs)
                  outs))
        | Error (kind, msg) -> Printf.sprintf "%s: %s" (kind_name kind) msg
      in
      let result =
        let compiled_r = exec_with Sim.Compiled in
        let interp_r = exec_with Sim.Interp in
        if compiled_r = interp_r then compiled_r
        else
          Error
            ( Engine_divergence,
              Printf.sprintf "interp {%s} vs compiled {%s}"
                (result_str interp_r) (result_str compiled_r) )
      in
      match result with
      | Error (kind, detail) -> Failed { kind; detail }
      | Ok (outs, cycles) -> (
        let expected =
          Ir.Eval.run_with_inputs ~width case.Gen.prog case.Gen.inputs
        in
        let bad =
          List.find_opt
            (fun (name, want) ->
              match List.assoc_opt name outs with
              | Some got -> got <> want
              | None -> true)
            expected
        in
        match bad with
        | Some (name, want) ->
          let got =
            match List.assoc_opt name outs with
            | Some g -> array_to_string g
            | None -> "<missing>"
          in
          Failed
            {
              kind = Miscompile;
              detail =
                Printf.sprintf "output %s: interpreter %s, simulator %s" name
                  (array_to_string want) got;
            }
        | None ->
          let static_ = Record.Timing.cycles compiled in
          if static_ <> cycles then
            Failed
              {
                kind = Timing_drift;
                detail =
                  Printf.sprintf "static %d cycles, simulated %d" static_
                    cycles;
              }
          else Pass { cycles; words = Record.Pipeline.words compiled }))

let is_failure = function
  | Failed _ -> true
  | Pass _ | Skipped_contract | Cannot_compile _ -> false

(* ---- campaigns -------------------------------------------------------------- *)

type combo = {
  machine : Target.Machine.t;
  options : Record.Options.t;
  label : string;
}

let combos_for ?(selection = Record.Options.Tree) ~machines ~conventional () =
  (* The selection mode applies to the RECORD combos only: the
     conventional baseline models a compiler without the selection
     subsystem, so it always covers tree by tree.  A non-default mode
     shows up in the label (and in the options digest a counterexample
     pins). *)
  let record_label m =
    m ^ "/record"
    ^ (match selection with
      | Record.Options.Tree -> ""
      | Record.Options.Dag ->
        "+" ^ Record.Options.selection_mode_name selection)
  in
  List.concat_map
    (fun (m : Target.Machine.t) ->
      {
        machine = m;
        options =
          Record.Options.with_selection_mode selection Record.Options.record_;
        label = record_label m.name;
      }
      ::
      (if conventional then
         [
           {
             machine = m;
             options = Record.Options.conventional;
             label = m.name ^ "/conv";
           };
         ]
       else []))
    machines

(* The registry's own machine values: its long-lived matchers are keyed on
   their grammars, so a campaign over these labels with the warm matchers
   instead of replacing them. *)
let default_combos () =
  combos_for ~machines:(Driver.Registry.machines ()) ~conventional:true ()

type counterexample = {
  case : Gen.case;
  combo : string;
  target : string;
  record_options : bool;
  options_digest : string;
  verdict : verdict;
  shrunk : Gen.case;
  shrunk_verdict : verdict;
}

type report = {
  seed : int;
  count : int;
  combos : string list;
  pass : (string * int) list;
  skipped : (string * int) list;
  cannot_compile : (string * int) list;
  counterexamples : counterexample list;
}

let run ?(config = Gen.default) ?(combos = default_combos ()) ?(shrink = true)
    ~seed ~count () =
  let counter () = List.map (fun c -> (c.label, ref 0)) combos in
  let pass = counter () and skipped = counter () and cannot = counter () in
  let cexs = ref [] in
  (* One memory-tier cache for the whole campaign: shrink candidates that
     recur and the post-shrink verdict recompile hit instead of re-running
     the pipeline. *)
  let cache = Driver.Cache.create ~memory_slots:512 () in
  List.iter
    (fun (case : Gen.case) ->
      List.iter
        (fun combo ->
          match check ~cache ~options:combo.options combo.machine case with
          | Pass _ -> incr (List.assoc combo.label pass)
          | Skipped_contract -> incr (List.assoc combo.label skipped)
          | Cannot_compile _ -> incr (List.assoc combo.label cannot)
          | Failed _ as verdict ->
            let still_fails c =
              is_failure
                (check ~cache ~options:combo.options combo.machine c)
            in
            let shrunk =
              if shrink then Shrink.minimize ~still_fails case else case
            in
            let shrunk_verdict =
              check ~cache ~options:combo.options combo.machine shrunk
            in
            cexs :=
              {
                case;
                combo = combo.label;
                target = combo.machine.Target.Machine.name;
                record_options =
                  Record.Options.digest combo.options
                  = Record.Options.digest Record.Options.record_;
                options_digest = Record.Options.digest combo.options;
                verdict;
                shrunk;
                shrunk_verdict;
              }
              :: !cexs)
        combos)
    (Gen.cases ~config ~seed ~count ());
  {
    seed;
    count;
    combos = List.map (fun c -> c.label) combos;
    pass = List.map (fun (l, r) -> (l, !r)) pass;
    skipped = List.map (fun (l, r) -> (l, !r)) skipped;
    cannot_compile = List.map (fun (l, r) -> (l, !r)) cannot;
    counterexamples = List.rev !cexs;
  }

let failures report = List.length report.counterexamples

(* ---- reporting ---------------------------------------------------------------- *)

let pp_verdict ppf = function
  | Pass { cycles; words } ->
    Format.fprintf ppf "pass (%d cycles, %d words)" cycles words
  | Skipped_contract -> Format.fprintf ppf "skipped (outside fixed-point contract)"
  | Cannot_compile msg -> Format.fprintf ppf "cannot compile: %s" msg
  | Failed { kind; detail } ->
    Format.fprintf ppf "%s: %s" (kind_name kind) detail

let pp_inputs ppf inputs =
  List.iter
    (fun (name, vs) ->
      Format.fprintf ppf "  %s = %s@," name (array_to_string vs))
    inputs

let pp_counterexample ppf cex =
  Format.fprintf ppf
    "@[<v>counterexample on %s (seed %d, case %d, options %s): %a@,\
     shrunk to: %a@,%a@,shrunk inputs:@,%a@]"
    cex.combo cex.case.Gen.seed cex.case.Gen.index cex.options_digest
    pp_verdict cex.verdict pp_verdict cex.shrunk_verdict Ir.Prog.pp
    cex.shrunk.Gen.prog pp_inputs cex.shrunk.Gen.inputs

let pp_report ppf r =
  Format.fprintf ppf "@[<v>fuzz campaign: seed %d, %d programs, %d targets@,"
    r.seed r.count (List.length r.combos);
  List.iter
    (fun label ->
      Format.fprintf ppf
        "  %-16s pass %-5d skipped %-4d cannot-compile %d@," label
        (List.assoc label r.pass)
        (List.assoc label r.skipped)
        (List.assoc label r.cannot_compile))
    r.combos;
  (match r.counterexamples with
  | [] -> Format.fprintf ppf "counterexamples: none@,"
  | cexs ->
    Format.fprintf ppf "counterexamples: %d@," (List.length cexs);
    List.iter (fun c -> Format.fprintf ppf "%a@," pp_counterexample c) cexs);
  Format.fprintf ppf "@]"
