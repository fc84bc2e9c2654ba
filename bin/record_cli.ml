(* Command-line driver for the RECORD reproduction.

     record compile FILE --target tic25 [--conventional] [--input x=1,2,3]
                         [--json] [--cache-dir DIR]
     record batch JOBS.json [--domains N] [--timeout S] [-o OUT.json]
     record targets
     record rules --target dsp56
     record timing FILE --target tic25 [--deadline CYCLES]
     record asm FILE.s [--var x:4] [--input x=1,2,3,4]
     record ise [--netlist acc16] [--compile FILE]
     record selftest [--netlist acc16]
     record table1 *)

open Cmdliner

(* Machine lookup is the driver registry's job — one copy, one error
   message, shared by every subcommand. *)
let find_machine = Driver.Registry.find_machine

let netlists =
  [
    ("acc16", Rtl.Samples.acc16);
    ("acc16_dualreg", Rtl.Samples.acc16_dualreg);
    ("mac16", Rtl.Samples.mac16);
  ]

let find_netlist name =
  match List.assoc_opt name netlists with
  | Some n -> Ok n
  | None ->
    Error
      (Printf.sprintf "unknown netlist %s (available: %s)" name
         (String.concat ", " (List.map fst netlists)))

(* "x=1,2,3" -> ("x", [|1;2;3|]) *)
let parse_input spec =
  match String.index_opt spec '=' with
  | None -> Error (spec ^ ": expected name=v1,v2,...")
  | Some i -> (
    let name = String.sub spec 0 i in
    let values = String.sub spec (i + 1) (String.length spec - i - 1) in
    match
      List.map int_of_string (String.split_on_char ',' values)
    with
    | values -> Ok (name, Array.of_list values)
    | exception Failure _ -> Error (spec ^ ": values must be integers"))

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("record: " ^ msg);
    exit 1

(* The one DFL loader of compile, ise and timing: a source that cannot be
   read, lexed, parsed or lowered exits 1 as "record: FILE: msg".  Like
   every file the CLI reads, the source is read as a job's file is
   ([Driver.Protocol.read_file]): only a regular file, and without waiting
   for a FIFO's writer. *)
let load_dfl file =
  try Dfl.Lower.source (Driver.Protocol.read_file file) with
  | Dfl.Lexer.Error msg | Dfl.Parser.Error msg | Dfl.Lower.Error msg ->
    or_die (Error (file ^ ": " ^ msg))
  | Sys_error msg -> or_die (Error msg)

(* ---- compile -------------------------------------------------------------- *)

let machine_of target target_file =
  match target_file with
  | Some path -> (
    match Mdl.load (Driver.Protocol.read_file path) with
    | m -> m
    | exception Mdl.Error msg -> or_die (Error (path ^ ": " ^ msg))
    | exception Ise.Gen.Unsupported msg -> or_die (Error (path ^ ": " ^ msg))
    | exception Sys_error msg -> or_die (Error msg))
  | None -> or_die (find_machine target)

(* --selection on compile/fuzz/batch/dse: the instruction-selection scope
   of Options.selection_mode. *)
let selection_enum = Arg.enum Record.Options.selection_modes

let selection_doc =
  "Instruction-selection scope: $(b,tree) covers each data-flow tree \
   independently, $(b,dag) shares subtree results across tree boundaries \
   (DAG covering)"

let selection_arg =
  Arg.(
    value
    & opt selection_enum Record.Options.Tree
    & info [ "selection" ] ~docv:"MODE" ~doc:selection_doc)

(* batch: an override — absent means each job's own "selection" member
   (default tree) stands. *)
let selection_override_arg =
  Arg.(
    value
    & opt (some selection_enum) None
    & info [ "selection" ] ~docv:"MODE"
        ~doc:(selection_doc ^ "; overrides every job's own selection member"))

(* Cache selection shared by [compile --json] and [batch]: an explicit
   --cache-dir wins, --no-cache disables the disk tier entirely, and the
   default is the persistent user cache. *)
let cache_of ~no_cache ~cache_dir =
  if no_cache then None
  else
    let dir =
      match cache_dir with
      | Some d -> d
      | None -> Driver.Cache.default_dir ()
    in
    Some (Driver.Cache.create ~dir ())

let compile_cmd file target target_file conventional selection check inputs
    json no_cache cache_dir =
  let machine = machine_of target target_file in
  let options_label = if conventional then "conventional" else "record" in
  let options =
    if conventional then Record.Options.conventional else Record.Options.record_
  in
  let options = Record.Options.with_selection_mode selection options in
  let prog = load_dfl file in
  let inputs = List.map (fun s -> or_die (parse_input s)) inputs in
  or_die (Ir.Prog.check_inputs prog inputs);
  let cache = cache_of ~no_cache ~cache_dir in
  let outcome =
    try Driver.Service.compile ?cache ~options machine prog with
    | Record.Pipeline.Error msg -> or_die (Error msg)
  in
  let compiled = outcome.Driver.Service.compiled in
  let simulated =
    if inputs = [] then None
    else begin
      let outputs, cycles = Record.Pipeline.execute compiled ~inputs in
      let checked =
        if not check then None
        else
          let expected = Ir.Eval.run_with_inputs prog inputs in
          Some
            (List.for_all (fun (n, v) -> List.assoc n outputs = v) expected)
      in
      Some (outputs, cycles, checked)
    end
  in
  if json then begin
    let asm_text = Target.Asm.to_string compiled.Record.Pipeline.asm in
    let sim_fields =
      match simulated with
      | None -> [ ("cycles", Driver.Json.Null); ("outputs", Driver.Json.Obj []) ]
      | Some (outputs, cycles, checked) ->
        [
          ("cycles", Driver.Json.Int cycles);
          ("outputs", Driver.Job.outputs_to_json outputs);
          ( "check",
            match checked with
            | None -> Driver.Json.Null
            | Some ok -> Driver.Json.Bool ok );
        ]
    in
    let doc =
      Driver.Json.Obj
        ([
           ("protocol", Driver.Json.String "record-compile-1");
           ("file", Driver.Json.String file);
           ("target", Driver.Json.String machine.Target.Machine.name);
           ("options", Driver.Json.String options_label);
           ( "selection_mode",
             Driver.Json.String
               (Record.Options.selection_mode_name selection) );
           ( "options_digest",
             Driver.Json.String (Record.Options.digest options) );
           ("key", Driver.Json.String outcome.Driver.Service.key);
           ( "cache",
             Driver.Json.String
               (Driver.Service.provenance_name outcome.Driver.Service.provenance)
           );
           ("words", Driver.Json.Int (Record.Pipeline.words compiled));
           ( "instrs",
             Driver.Json.Int
               (Target.Asm.instr_count compiled.Record.Pipeline.asm) );
           ("asm", Driver.Json.String asm_text);
           ("wall_ms", Driver.Json.Float outcome.Driver.Service.wall_ms);
           ( "selection",
             Driver.Job.selection_to_json compiled.Record.Pipeline.selection );
           ( "phase_ms",
             Driver.Job.phase_ms_to_json compiled.Record.Pipeline.phase_ms );
         ]
        @ sim_fields)
    in
    print_endline (Driver.Json.to_string ~indent:true doc)
  end
  else begin
    Format.printf "%a@." Target.Asm.pp compiled.Record.Pipeline.asm;
    Format.printf "; %d words, %d instructions@."
      (Record.Pipeline.words compiled)
      (Target.Asm.instr_count compiled.Record.Pipeline.asm);
    match simulated with
    | None -> ()
    | Some (outputs, cycles, checked) ->
      List.iter
        (fun (name, values) ->
          Format.printf "%s = %s@." name
            (String.concat ", "
               (Array.to_list (Array.map string_of_int values))))
        outputs;
      Format.printf "; %d cycles@." cycles;
      (match checked with
      | None -> ()
      | Some ok ->
        Format.printf "; check against reference interpreter: %s@."
          (if ok then "PASS" else "FAIL"))
  end;
  match simulated with
  | Some (_, _, Some false) -> exit 2
  | Some _ | None -> ()

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"DFL source file")

let target_arg =
  Arg.(value & opt string "tic25" & info [ "target"; "t" ] ~docv:"NAME"
         ~doc:"Target machine (tic25, dsp56, risc32, asip)")

let target_file_arg =
  Arg.(value & opt (some file) None & info [ "target-file" ] ~docv:"FILE.mdl"
         ~doc:"Generate the target from a textual machine description")

let conventional_arg =
  Arg.(value & flag & info [ "conventional" ]
         ~doc:"Use the conventional-compiler configuration instead of RECORD")

let check_arg =
  Arg.(value & flag & info [ "check" ]
         ~doc:"Compare the simulated outputs against the reference \
               interpreter (exit 2 on mismatch)")

let inputs_arg =
  Arg.(value & opt_all string [] & info [ "input"; "i" ] ~docv:"NAME=V,V,..."
         ~doc:"Set an input variable and run the program on the simulator")

let json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Emit the result as a record-compile-1 JSON document instead \
               of a listing")

let no_cache_arg =
  Arg.(value & flag & info [ "no-cache" ]
         ~doc:"Disable the compilation cache")

let cache_dir_arg =
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR"
         ~doc:"Directory of the persistent compilation cache (default \
               ~/.cache/record)")

let compile_t =
  Cmd.v
    (Cmd.info "compile" ~doc:"Compile a DFL program")
    Term.(
      const compile_cmd $ file_arg $ target_arg $ target_file_arg
      $ conventional_arg $ selection_arg $ check_arg $ inputs_arg $ json_arg
      $ no_cache_arg $ cache_dir_arg)

(* ---- targets --------------------------------------------------------------- *)

let targets_cmd () =
  Format.printf "%-10s %-16s %s@." "name" "classification" "description";
  List.iter
    (fun (m : Target.Machine.t) ->
      Format.printf "%-10s %-16s %s@." m.name
        (Target.Classify.corner_name m.classification)
        m.description)
    (Driver.Registry.machines ());
  Format.printf "@.netlists (for 'record ise'): %s@."
    (String.concat ", " (List.map fst netlists))

let targets_t =
  Cmd.v
    (Cmd.info "targets" ~doc:"List bundled machines and netlists")
    Term.(const targets_cmd $ const ())

(* ---- ise ------------------------------------------------------------------- *)

let netlist_arg =
  Arg.(value & opt string "acc16" & info [ "netlist"; "n" ] ~docv:"NAME"
         ~doc:"RT netlist to use")

let ise_cmd netlist compile_file =
  let net = or_die (find_netlist netlist) in
  let transfers = Ise.Extract.run net in
  Format.printf "netlist %s: %d transfers extracted@.@." netlist
    (List.length transfers);
  List.iter
    (fun t ->
      Format.printf "%a@.    /%s/@." Ise.Transfer.pp t
        (Ise.Transfer.encoding net t))
    transfers;
  match compile_file with
  | None -> ()
  | Some file ->
    let machine = Ise.Gen.machine net in
    let prog = load_dfl file in
    let compiled =
      try Record.Pipeline.compile machine prog with
      | Record.Pipeline.Error msg -> or_die (Error msg)
    in
    Format.printf "@.%a@." Target.Asm.pp compiled.Record.Pipeline.asm

let ise_compile_arg =
  Arg.(value & opt (some file) None & info [ "compile" ] ~docv:"FILE"
         ~doc:"Also compile the given DFL file with the generated compiler")

let ise_t =
  Cmd.v
    (Cmd.info "ise" ~doc:"Extract an instruction set from an RT netlist")
    Term.(const ise_cmd $ netlist_arg $ ise_compile_arg)

(* ---- selftest ---------------------------------------------------------------- *)

let selftest_cmd netlist =
  let net = or_die (find_netlist netlist) in
  let suite = Selftest.generate net in
  let results = Selftest.run suite in
  List.iter
    (fun (name, ok) ->
      Format.printf "%-28s %s@." name (if ok then "pass" else "FAIL"))
    results;
  List.iter
    (fun name -> Format.printf "%-28s untestable@." name)
    suite.Selftest.untestable;
  let cov = Selftest.fault_coverage suite in
  Format.printf "@.stuck-at fault coverage: %d/%d@." cov.Selftest.detected
    cov.Selftest.faults;
  (* Scriptable in CI: a failing self-test fails the run. *)
  if List.exists (fun (_, ok) -> not ok) results then begin
    prerr_endline "record: selftest failed";
    exit 1
  end

let selftest_t =
  Cmd.v
    (Cmd.info "selftest" ~doc:"Generate and run self-test programs (§4.5)")
    Term.(const selftest_cmd $ netlist_arg)

(* ---- asm ------------------------------------------------------------------------ *)

(* "name" or "name:size" *)
let parse_var spec =
  match String.index_opt spec ':' with
  | None -> Ok (spec, 1)
  | Some i -> (
    let name = String.sub spec 0 i in
    match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
    | Some n when n >= 1 -> Ok (name, n)
    | Some _ | None -> Error (spec ^ ": expected name:size"))

let asm_cmd file vars inputs =
  let asm =
    try Target.Tic25_asm.parse (Driver.Protocol.read_file file) with
    | Target.Tic25_asm.Parse_error msg -> or_die (Error (file ^ ": " ^ msg))
    | Sys_error msg -> or_die (Error msg)
  in
  Format.printf "%a; %d words@.@." Target.Asm.pp asm (Target.Asm.words asm);
  let vars = List.map (fun v -> or_die (parse_var v)) vars in
  let inputs = List.map (fun s -> or_die (parse_input s)) inputs in
  (* The declarations as a program without statements, so the inputs are
     checked as [compile -i] checks them. *)
  let prog =
    {
      Ir.Prog.name = file;
      decls = List.map (fun (name, size) -> Ir.Prog.array_decl name size) vars;
      body = [];
    }
  in
  or_die (Result.map_error (( ^ ) "--var: ") (Ir.Prog.validate prog));
  or_die (Ir.Prog.check_inputs prog inputs);
  if vars <> [] then begin
    Target.Asm.iter
      (fun (i : Target.Instr.t) ->
        List.iter
          (function
            | Target.Instr.Dir r | Target.Instr.Adr r
              when Ir.Prog.find_decl prog r.Ir.Mref.base = None ->
              or_die
                (Error
                   (Printf.sprintf "%s: %s names %s, which no --var declares"
                      file i.opcode r.Ir.Mref.base))
            | _ -> ())
          i.operands)
      asm;
    let layout =
      Target.Layout.make ~banks:[ "data" ]
        (List.map (fun (name, size) -> (name, size, "data")) vars)
    in
    let outcome =
      (* worded as a simulate job's failure *)
      match Sim.run Target.Tic25.machine ~layout ~inputs asm with
      | outcome -> outcome
      | exception Sim.Mode_violation msg ->
        or_die (Error ("mode violation: " ^ msg))
      | exception Sim.Exec_error msg -> or_die (Error ("exec error: " ^ msg))
    in
    List.iter
      (fun (name, _) ->
        Format.printf "%s = %s@." name
          (String.concat ", "
             (Array.to_list
                (Array.map string_of_int (Target.Mstate.get_var outcome.Sim.state name)))))
      vars;
    Format.printf "; %d cycles@." outcome.Sim.cycles
  end

let vars_arg =
  Arg.(value & opt_all string [] & info [ "var" ] ~docv:"NAME[:SIZE]"
         ~doc:"Declare a memory variable (declaration order = layout order)")

let asm_t =
  Cmd.v
    (Cmd.info "asm"
       ~doc:"Assemble a C25 listing and optionally run it on the simulator")
    Term.(const asm_cmd $ file_arg $ vars_arg $ inputs_arg)

(* ---- rules -------------------------------------------------------------------- *)

let rules_cmd target target_file =
  let machine = machine_of target target_file in
  Format.printf "%a@." Burg.Grammar.pp machine.Target.Machine.grammar;
  Format.printf "@.register file:@.%a@." Target.Regfile.pp
    machine.Target.Machine.regfile

let rules_t =
  Cmd.v
    (Cmd.info "rules"
       ~doc:"Show a machine's instruction-selection grammar and register file")
    Term.(const rules_cmd $ target_arg $ target_file_arg)

(* ---- timing ------------------------------------------------------------------- *)

let timing_cmd file target deadline =
  let machine = or_die (find_machine target) in
  let prog = load_dfl file in
  let compiled =
    try Record.Pipeline.compile machine prog with
    | Record.Pipeline.Error msg -> or_die (Error msg)
  in
  let report = Record.Timing.analyze compiled in
  Format.printf "%a@." Record.Timing.pp report;
  match deadline with
  | None -> ()
  | Some d ->
    let ok = Record.Timing.meets_deadline compiled ~deadline:d in
    Format.printf "deadline %d cycles: %s@." d (if ok then "MET" else "MISSED");
    if not ok then exit 2

let deadline_arg =
  Arg.(value & opt (some int) None & info [ "deadline" ] ~docv:"CYCLES"
         ~doc:"Check the code against a cycle budget (exit 2 when missed)")

let timing_t =
  Cmd.v
    (Cmd.info "timing"
       ~doc:"Static execution-time analysis of a compiled DFL program")
    Term.(const timing_cmd $ file_arg $ target_arg $ deadline_arg)

(* ---- fuzz -------------------------------------------------------------------- *)

let fuzz_cmd seed count max_size targets record_only selection no_shrink =
  let selected =
    match targets with
    | [] -> Driver.Registry.machines ()
    | names -> List.map (fun n -> or_die (find_machine n)) names
  in
  let combos =
    Fuzz.Oracle.combos_for ~selection ~machines:selected
      ~conventional:(not record_only) ()
  in
  let config = Fuzz.Gen.sized max_size in
  let report =
    Fuzz.Oracle.run ~config ~combos ~shrink:(not no_shrink) ~seed ~count ()
  in
  Format.printf "%a@." Fuzz.Oracle.pp_report report;
  if Fuzz.Oracle.failures report > 0 then begin
    List.iter
      (fun (c : Fuzz.Oracle.counterexample) ->
        (* The failing target is a real flag, so the line is copy-paste
           runnable; --record-only narrows the rerun when the failing
           option set was RECORD's (a conventional-baseline failure needs
           both option sets, which is the default). *)
        Format.printf
          "reproduce: record fuzz --seed %d --count %d --max-size %d --target %s%s%s  # failing case %d on %s, options %s@."
          c.Fuzz.Oracle.case.Fuzz.Gen.seed
          (c.Fuzz.Oracle.case.Fuzz.Gen.index + 1)
          max_size c.Fuzz.Oracle.target
          (if c.Fuzz.Oracle.record_options then " --record-only" else "")
          (* The active selection mode is part of the failing
             configuration; the default stays implicit so pre-existing
             lines still apply. *)
          (match selection with
          | Record.Options.Tree -> ""
          | Record.Options.Dag ->
            " --selection=" ^ Record.Options.selection_mode_name selection)
          c.Fuzz.Oracle.case.Fuzz.Gen.index c.Fuzz.Oracle.combo
          c.Fuzz.Oracle.options_digest)
      report.Fuzz.Oracle.counterexamples;
    prerr_endline "record: fuzz found counterexamples";
    exit 1
  end

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N"
         ~doc:"Campaign seed; a failing case is reproduced exactly by its \
               seed and index")

let count_arg =
  Arg.(value & opt int 200 & info [ "count" ] ~docv:"N"
         ~doc:"Number of random programs to generate")

let max_size_arg =
  Arg.(value & opt int 4 & info [ "max-size" ] ~docv:"N"
         ~doc:"Program size knob (top-level items; expression depth scales \
               with it)")

let fuzz_targets_arg =
  Arg.(value & opt_all string [] & info [ "target"; "t" ] ~docv:"NAME"
         ~doc:"Restrict to a target (repeatable); default is every bundled \
               machine")

let record_only_arg =
  Arg.(value & flag & info [ "record-only" ]
         ~doc:"Only fuzz the RECORD configuration (skip the conventional \
               baseline option set)")

let no_shrink_arg =
  Arg.(value & flag & info [ "no-shrink" ]
         ~doc:"Report counterexamples as generated, without minimizing them")

let fuzz_t =
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Differential fuzzing: random programs, every target, compiled \
             code versus the reference interpreter (exit 1 on any \
             counterexample)")
    Term.(
      const fuzz_cmd $ seed_arg $ count_arg $ max_size_arg $ fuzz_targets_arg
      $ record_only_arg $ selection_arg $ no_shrink_arg)

(* ---- batch ------------------------------------------------------------------- *)

(* Job decoding lives in Driver.Protocol so [record serve] speaks the
   exact same dialect; see its mli for the jobs-file format. *)

let pp_batch_status ppf (r : Driver.Job.result) =
  match r.Driver.Job.status with
  | Driver.Job.Done s ->
    Format.fprintf ppf "done  %4d words%s  [%s, %.1f ms]" s.Driver.Job.words
      (match s.Driver.Job.cycles with
      | Some c -> Printf.sprintf ", %5d cycles" c
      | None -> (
        match s.Driver.Job.static_cycles with
        | Some c -> Printf.sprintf ", %5d cycles (static)" c
        | None -> ""))
      (Driver.Service.provenance_name s.Driver.Job.cache)
      s.Driver.Job.wall_ms
  | Driver.Job.Unsupported msg -> Format.fprintf ppf "unsupported: %s" msg
  | Driver.Job.Failed msg -> Format.fprintf ppf "FAILED %s" msg
  | Driver.Job.Timed_out s -> Format.fprintf ppf "TIMEOUT after %.1f s" s
  | Driver.Job.Crashed msg -> Format.fprintf ppf "CRASHED %s" msg

(* [--domains] of batch, serve and dse: the pool's worker domains. *)
let pool_width = function
  | None -> Driver.Pool.default_domains ()
  | Some d when d >= 1 -> d
  | Some d ->
    or_die (Error (Printf.sprintf "--domains must be at least 1, got %d" d))

let batch_cmd jobs_file domains timeout selection no_cache cache_dir out json
    compact deterministic require_hit_rate =
  let domains = pool_width domains in
  (match timeout with
  | Some t when not (Float.is_finite t && t > 0.0) ->
    or_die
      (Error
         (Printf.sprintf "--timeout must be a positive number of seconds, got %g"
            t))
  | Some _ | None -> ());
  let doc =
    match Driver.Json.of_string (Driver.Protocol.read_file jobs_file) with
    | Ok doc -> doc
    | Error msg -> or_die (Error (jobs_file ^ ": " ^ msg))
    | exception Sys_error msg -> or_die (Error msg)
  in
  let jobs = or_die (Driver.Protocol.jobs_of_json ?selection doc) in
  let cache = cache_of ~no_cache ~cache_dir in
  let report =
    match Driver.Batch.run ~domains ?timeout ?cache jobs with
    | report -> report
    | exception Invalid_argument msg ->
      (* The timeout is checked above: the pool could not start. *)
      or_die (Error msg)
  in
  let results = report.Driver.Batch.results in
  let doc =
    Driver.Json.to_string ~indent:(not compact)
      (Driver.Job.results_to_json ~deterministic ~jobs results)
  in
  (match out with
  | Some path ->
    let oc = open_out path in
    output_string oc doc;
    output_char oc '\n';
    close_out oc
  | None -> ());
  if (json || compact) && out = None then print_endline doc
  else begin
    List.iter
      (fun (r : Driver.Job.result) ->
        Format.printf "%-40s %a@." r.Driver.Job.label pp_batch_status r)
      results;
    let hits = Driver.Batch.hits report in
    let completed = Driver.Batch.completed report in
    Format.printf
      "@.%d jobs, %d completed, %d cache hits; %d workers, %.1f ms@."
      (List.length jobs) completed hits report.Driver.Batch.workers
      report.Driver.Batch.wall_ms;
    (match cache with
    | None -> ()
    | Some cache ->
      let c = Driver.Cache.counters cache in
      Format.printf
        "cache: %d memory hits, %d disk hits, %d misses, %d stores, %d \
         evictions@."
        c.Driver.Cache.memory_hits c.Driver.Cache.disk_hits
        c.Driver.Cache.misses c.Driver.Cache.stores c.Driver.Cache.evictions)
  end;
  let failed =
    List.exists
      (fun (r : Driver.Job.result) ->
        match r.Driver.Job.status with
        (* A machine that legitimately cannot express a program is not a
           batch failure, matching the fuzz oracle's Cannot_compile. *)
        | Driver.Job.Done _ | Driver.Job.Unsupported _ -> false
        | Driver.Job.Failed _ | Driver.Job.Timed_out _ | Driver.Job.Crashed _ ->
          true)
      results
  in
  (match require_hit_rate with
  | None -> ()
  | Some need ->
    let completed = Driver.Batch.completed report in
    let rate =
      if completed = 0 then 0.0
      else float_of_int (Driver.Batch.hits report) /. float_of_int completed
    in
    if rate < need then begin
      prerr_endline
        (Printf.sprintf "record: cache hit rate %.2f below required %.2f" rate
           need);
      exit 3
    end);
  if failed then exit 1

let jobs_file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"JOBS.json"
         ~doc:"Jobs file (an array of job objects, or {\"jobs\": [...]})")

let domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Run jobs on N worker domains in this process (default: CPU \
               count - 1, at least 1), with the calling domain computing \
               beside them; all share the intern table, the per-target \
               matcher tables, and the in-memory cache tier")

let timeout_arg =
  Arg.(value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS"
         ~doc:"Per-job wall-clock limit, counted from the job's start: a job \
               still compiling or simulating when it runs out reports a \
               timeout, and the other jobs carry on")

let out_arg =
  Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
         ~doc:"Write the JSON result document to FILE")

let batch_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the JSON result document to stdout instead of the text \
               summary")

let compact_arg =
  Arg.(value & flag & info [ "compact" ]
         ~doc:"Encode the JSON result document on one line (the encoding \
               $(b,record serve) replies with), and print it instead of \
               the text summary")

let deterministic_arg =
  Arg.(value & flag & info [ "deterministic" ]
         ~doc:"Omit volatile fields (wall-clock times, phase traces, cache \
               provenance) so repeated runs are byte-identical")

let require_hit_rate_arg =
  Arg.(value & opt (some float) None & info [ "require-hit-rate" ] ~docv:"R"
         ~doc:"Exit 3 unless at least this fraction of completed jobs were \
               cache hits (CI warm-cache assertion)")

let batch_t =
  Cmd.v
    (Cmd.info "batch"
       ~doc:"Compile a JSON job list in parallel through the compilation \
             cache (exit 1 on any failed job)")
    Term.(
      const batch_cmd $ jobs_file_arg $ domains_arg $ timeout_arg
      $ selection_override_arg $ no_cache_arg $ cache_dir_arg $ out_arg
      $ batch_json_arg $ compact_arg $ deterministic_arg
      $ require_hit_rate_arg)

(* ---- serve ------------------------------------------------------------------- *)

let serve_cmd domains socket deterministic no_cache cache_dir =
  let domains = pool_width domains in
  let cache = cache_of ~no_cache ~cache_dir in
  let config = { Driver.Serve.domains; deterministic; cache; matcher = None } in
  match
    match socket with
    | None -> Driver.Serve.run_stdio config
    | Some path -> Driver.Serve.run_socket config ~path
  with
  | () -> ()
  | exception Invalid_argument msg -> or_die (Error msg)

let serve_domains_arg =
  Arg.(value & opt (some int) None & info [ "domains" ] ~docv:"N"
         ~doc:"Worker domains in the pool (default: CPU count - 1, at \
               least 1); a request's own thread also computes its jobs \
               while no other request is computing on the main domain")

let socket_arg =
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH"
         ~doc:"Listen on a Unix-domain socket at PATH (one thread per \
               connection, all feeding one domain pool) instead of serving \
               stdin/stdout")

let serve_deterministic_arg =
  Arg.(value & flag & info [ "deterministic" ]
         ~doc:"Default requests to deterministic output (omit wall-clock \
               times, phase traces, cache provenance); a request's own \
               \"deterministic\" member overrides this")

let serve_t =
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Persistent compile daemon: newline-delimited JSON requests \
             (the batch jobs format, or {\"op\": \"ping\"|\"stats\"|\
             \"shutdown\"}) answered with one-line record-batch-1 result \
             documents; jobs run on a pool of domains sharing one intern \
             table, warm matchers, and one cache across all requests")
    Term.(
      const serve_cmd $ serve_domains_arg $ socket_arg
      $ serve_deterministic_arg $ no_cache_arg $ cache_dir_arg)

(* ---- dse --------------------------------------------------------------------- *)

let dse_cmd seed samples domains kernels selection out no_cache cache_dir json
    require_hit_rate =
  if samples < 1 then or_die (Error "--samples must be at least 1");
  let kernels =
    List.concat_map (String.split_on_char ',') kernels
    |> List.filter (fun s -> s <> "")
  in
  let kernels =
    match kernels with [] -> Dse.Sweep.default_kernels () | ks -> ks
  in
  let domains = pool_width domains in
  let cache = cache_of ~no_cache ~cache_dir in
  (* The sweep labels with the standard engine, like every subcommand. *)
  let matcher = Record.Options.record_.Record.Options.matcher in
  let config =
    { Dse.Sweep.seed; samples; kernels; domains; cache; selection; matcher }
  in
  let result =
    match Dse.Sweep.run config with
    | r -> r
    | exception Invalid_argument msg -> or_die (Error msg)
  in
  (* The document is a pure function of the sweep's config, byte-identical
     cold or warm, so CI can cmp two runs. Volatile facts (hit rate,
     wall-clock, cache counters) go to the text summary instead. *)
  let doc = Driver.Json.to_string ~indent:true (Dse.Sweep.to_json result) in
  let oc = open_out out in
  output_string oc doc;
  output_char oc '\n';
  close_out oc;
  if json then print_endline doc
  else Format.printf "%a" Dse.Sweep.pp_summary result;
  (match require_hit_rate with
  | None -> ()
  | Some need ->
    let rate = Dse.Sweep.hit_rate result in
    if rate < need then begin
      prerr_endline
        (Printf.sprintf "record: cache hit rate %.2f below required %.2f" rate
           need);
      exit 3
    end);
  if result.Dse.Sweep.front = [] then begin
    prerr_endline
      "record: empty Pareto front (no sampled architecture carries the whole \
       workload)";
    exit 1
  end

let dse_seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"S"
         ~doc:"PRNG seed; the whole sweep is a pure function of \
               (seed, samples, kernels)")

let dse_samples_arg =
  Arg.(value & opt int 128 & info [ "samples" ] ~docv:"N"
         ~doc:"Number of architectures to draw from the parameter cube")

let dse_kernels_arg =
  Arg.(value & opt_all string [] & info [ "kernels" ] ~docv:"NAMES"
         ~doc:"Restrict the workload to these DSPStone kernels (repeatable, \
               or comma-separated); default: the full Table-1 suite")

let dse_out_arg =
  Arg.(value & opt string "BENCH_dse.json" & info [ "o"; "output" ]
         ~docv:"FILE"
         ~doc:"Where to write the deterministic record-dse-1 document")

let dse_json_arg =
  Arg.(value & flag & info [ "json" ]
         ~doc:"Print the JSON document to stdout instead of the text summary")

let dse_t =
  Cmd.v
    (Cmd.info "dse"
       ~doc:"Design-space exploration: sample N ASIP architectures from a \
             seed, compile and simulate the DSPStone workload against each \
             through the compilation cache on a domain pool, and rank them \
             on a (code size, cycles, gate cost) Pareto front (exit 1 if \
             the front is empty)")
    Term.(
      const dse_cmd $ dse_seed_arg $ dse_samples_arg $ domains_arg
      $ dse_kernels_arg $ selection_arg $ dse_out_arg
      $ no_cache_arg $ cache_dir_arg $ dse_json_arg $ require_hit_rate_arg)

(* ---- table1 ------------------------------------------------------------------ *)

let table1_cmd () =
  Format.printf "%a@." Dspstone.Suite.pp_table1 (Dspstone.Suite.table1 ())

let table1_t =
  Cmd.v
    (Cmd.info "table1" ~doc:"Reproduce the paper's Table 1 (DSPStone sizes)")
    Term.(const table1_cmd $ const ())

(* ---- main -------------------------------------------------------------------- *)

let () =
  let doc = "RECORD-style retargetable compiler for DSP core processors" in
  let info = Cmd.info "record" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            compile_t; batch_t; serve_t; dse_t; targets_t; ise_t; selftest_t;
            table1_t; rules_t; timing_t; asm_t; fuzz_t;
          ]))
