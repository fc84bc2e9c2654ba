(* What every workload shares: the per-unit outcome, the output check
   against the reference interpreter, and the traced re-run of
   [Driver.Job.run] — the same public calls in the same order, each inside
   a span. *)

type outcome = {
  jobs : int;  (** jobs attempted *)
  compiled : int;  (** jobs ending [Done] *)
  failed : int;
      (** error replies, [Failed]/[Crashed]/[Timed_out], and outputs that
          differ from the reference *)
  words : int;  (** over completed jobs *)
  cycles : int;  (** over completed jobs *)
  problems : string list;  (** what failed, for the report *)
}

(* A workload after set-up: [units] pre-generated units of work, each run
   either the way a user's program calls the system ([run]) or through
   the same public calls under spans ([run_traced]).  Both return the
   unit's outcome and its latency as the caller sees it, in ms. *)
type runner = {
  units : int;
  work_per_unit : int;  (** what throughput counts per unit *)
  prefix : int;
      (** the first [prefix] units always complete in every run; words,
          cycles and the compiled share are totals over them *)
  cycle : int;
      (** after the prefix, unit [prefix + k] does the same work as unit
          [prefix + (k mod cycle)]; run.py times each distinct unit by the
          lower decile of its repeats *)
  run : int -> outcome * float;
  run_traced : Trace.t -> int -> outcome * float;
}

(* A workload once set up.  [generate] makes the inputs from the seed
   (harness work, not set-up). *)
type system = {
  generate : seed:int -> runner;
  shutdown : unit -> unit;
}

let empty =
  { jobs = 0; compiled = 0; failed = 0; words = 0; cycles = 0; problems = [] }

let merge a b =
  {
    jobs = a.jobs + b.jobs;
    compiled = a.compiled + b.compiled;
    failed = a.failed + b.failed;
    words = a.words + b.words;
    cycles = a.cycles + b.cycles;
    problems = a.problems @ b.problems;
  }

type verdict =
  | Completed of { words : int; cycles : int; outputs : (string * int array) list }
  | Unsupported  (** no code for this program on this machine: legitimate *)
  | Broken of string

let verdict_of_status = function
  | Driver.Job.Done { Driver.Job.words; cycles = Some cycles; outputs; _ } ->
    Completed { words; cycles; outputs }
  | Driver.Job.Done { Driver.Job.cycles = None; _ } -> Broken "no simulation result"
  | Driver.Job.Unsupported _ -> Unsupported
  | Driver.Job.Failed msg | Driver.Job.Crashed msg -> Broken msg
  | Driver.Job.Timed_out s -> Broken (Printf.sprintf "timed out after %gs" s)

let sorted outs = List.sort compare outs

(* One job's outcome: completed with the reference outputs counts as
   compiled, anything else but [Unsupported] fails. *)
let judge ~label ~expected verdict =
  let one = { empty with jobs = 1 } in
  match verdict with
  | Completed { words; cycles; outputs } when sorted outputs = sorted expected ->
    { one with compiled = 1; words; cycles }
  | Completed _ ->
    { one with failed = 1; problems = [ label ^ ": outputs differ from Ir.Eval" ] }
  | Unsupported -> one
  | Broken msg -> { one with failed = 1; problems = [ label ^ ": " ^ msg ] }

let find_sub s sub =
  let n = String.length sub in
  let rec go i =
    if i + n > String.length s then None
    else if String.sub s i n = sub then Some i
    else go (i + 1)
  in
  go 0

let time_ms f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, (Unix.gettimeofday () -. t0) *. 1000.0)

(* Where a run writes its generated inputs, reports and traces. *)
let out_dir = ".perfbench"

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* Instructions the simulator executes: loop bodies count once per
   iteration, parallel slots once each. *)
let dynamic_instrs asm =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (Target.Asm.flatten_counts asm)

let bundled_names = [ "tic25"; "dsp56"; "risc32"; "asip" ]

let bundled () =
  List.map
    (fun name ->
      match Driver.Registry.find_machine name with
      | Ok m -> m
      | Error msg -> failwith msg)
    bundled_names

(* ---- traced layers -------------------------------------------------------- *)

(* [Driver.Registry.matcher_for] inside a span.  [fresh] says the grammar
   is new to the process, so the call builds its matcher: the build is
   recorded with the intern-table size it ran against. *)
let matcher_for tr ?(fresh = false) engine machine =
  let live = (Ir.Hashcons.stats ()).Ir.Hashcons.live in
  let mt, ms =
    Trace.span_ms tr "registry.matcher_for" (fun () ->
        Driver.Registry.matcher_for ~engine machine)
  in
  if fresh && engine = Burg.Matcher.Table then
    Trace.event tr "burg.build"
      [
        ("create_ms", ms);
        ("hashcons_live", float_of_int live);
        ("states", float_of_int (Burg.Matcher.state_count mt));
        ("transitions", float_of_int (Burg.Matcher.transition_count mt));
        ("table_build_ms", Burg.Matcher.table_build_ms mt);
      ];
  mt

let phase_layer phase =
  "pipeline." ^ String.map (function '-' -> '_' | c -> c) phase

(* The pipeline's own phase trace, as child spans of the open span, and
   the selection counters of the compile. *)
let record_compile tr ~start (c : Record.Pipeline.compiled) =
  Trace.add_measured tr ~start
    (List.map (fun (p, ms) -> (phase_layer p, ms)) c.Record.Pipeline.phase_ms);
  let s = c.Record.Pipeline.selection in
  List.iter
    (fun (k, v) -> Trace.add tr k (float_of_int v))
    [
      ("select.trees", s.Record.Pipeline.sel_trees);
      ("select.variants", s.Record.Pipeline.sel_variants);
      ("select.variant_nodes", s.Record.Pipeline.sel_variant_nodes);
      ("select.nodes_labelled", s.Record.Pipeline.sel_nodes_labelled);
      ("select.memo_hits", s.Record.Pipeline.sel_memo_hits);
      ("select.state_prunes", s.Record.Pipeline.sel_state_prunes);
      ("select.compiles", 1);
    ]

(* [Driver.Service.compile] inside a span; phases and selection counters
   are counted on cache misses only (a hit replays the stored trace). *)
let service_compile tr ?cache ~options machine prog =
  Trace.span tr "service.compile" (fun () ->
      let start = Trace.now () in
      let before = Option.map Driver.Cache.counters cache in
      let o = Driver.Service.compile ?cache ~options machine prog in
      (match o.Driver.Service.provenance with
      | Driver.Service.Miss ->
        Trace.add tr "cache.misses" 1.0;
        record_compile tr ~start o.Driver.Service.compiled
      | Driver.Service.Memory_hit | Driver.Service.Disk_hit ->
        Trace.add tr "cache.hits" 1.0);
      (match (cache, before) with
      | Some cache, Some b ->
        let a = Driver.Cache.counters cache in
        Trace.add tr "cache.stores"
          (float_of_int (a.Driver.Cache.stores - b.Driver.Cache.stores));
        Trace.add tr "cache.evictions"
          (float_of_int (a.Driver.Cache.evictions - b.Driver.Cache.evictions))
      | _ -> ());
      o)

(* [Record.Pipeline.execute] split into its two engine steps, plus one
   interpreter run of the same image as the comparison baseline (a probe:
   the untraced path does not make it).  The engines must agree. *)
let simulate tr (c : Record.Pipeline.compiled) ~inputs =
  let machine = c.Record.Pipeline.machine in
  let width = machine.Target.Machine.word_bits in
  let layout = c.Record.Pipeline.layout and asm = c.Record.Pipeline.asm in
  let image = inputs @ List.map (fun (n, v) -> (n, [| v |])) c.Record.Pipeline.pool in
  match
    let plan, prepare_ms =
      Trace.span_ms tr "sim.prepare" (fun () ->
          Sim.Compile.prepare ~width machine ~layout asm)
    in
    let outcome, run_ms =
      Trace.span_ms tr "sim.run" (fun () -> Sim.Compile.run plan ~inputs:image)
    in
    let interp, interp_ms =
      Trace.span_ms tr "sim.interp" (fun () ->
          Sim.run ~width ~engine:Sim.Interp machine ~layout ~inputs:image asm)
    in
    let dyn = dynamic_instrs asm in
    Trace.event tr "sim"
      [
        ("dynamic_instrs", float_of_int dyn);
        ("prepare_ms", prepare_ms);
        ("run_ms", run_ms);
        ("interp_ms", interp_ms);
      ];
    let outputs = Sim.outputs outcome c.Record.Pipeline.prog in
    if
      outcome.Sim.cycles <> interp.Sim.cycles
      || Sim.outputs interp c.Record.Pipeline.prog <> outputs
    then Error "compiled and interpreted simulation disagree"
    else Ok (outputs, outcome.Sim.cycles)
  with
  | r -> r
  | exception Sim.Mode_violation msg -> Error ("mode violation: " ^ msg)
  | exception Sim.Exec_error msg -> Error ("exec error: " ^ msg)

(* [Driver.Job.run] for a simulate job, call by call. *)
let run_job tr ?cache (job : Driver.Job.t) =
  let status =
    match
      Trace.span tr "registry.find_machine" (fun () ->
          Driver.Registry.find_machine job.Driver.Job.target)
    with
    | Error msg -> Driver.Job.Failed msg
    | Ok machine -> (
      let options = job.Driver.Job.options in
      ignore (matcher_for tr options.Record.Options.matcher machine);
      match service_compile tr ?cache ~options machine job.Driver.Job.prog with
      | exception Record.Pipeline.Error msg -> Driver.Job.Unsupported msg
      | o -> (
        let c = o.Driver.Service.compiled in
        match simulate tr c ~inputs:job.Driver.Job.inputs with
        | Error msg -> Driver.Job.Failed msg
        | Ok (outputs, cycles) ->
          Driver.Job.Done
            {
              Driver.Job.words = Record.Pipeline.words c;
              instrs = Target.Asm.instr_count c.Record.Pipeline.asm;
              stats = c.Record.Pipeline.stats;
              selection = c.Record.Pipeline.selection;
              cycles = Some cycles;
              outputs;
              static_cycles = None;
              deadline_met = None;
              asm = Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm;
              key = o.Driver.Service.key;
              cache = o.Driver.Service.provenance;
              wall_ms = o.Driver.Service.wall_ms;
              phase_ms = c.Record.Pipeline.phase_ms;
            }))
  in
  { Driver.Job.job = job.Driver.Job.id; label = job.Driver.Job.label; status }

(* What [Driver.Registry.warm] does, call by call: force the machine list
   (building the default ASIP) and build both engines' matchers for every
   bundled target. *)
let traced_warm tr =
  let machines =
    Trace.span tr "dse.machine_build" (fun () -> Driver.Registry.machines ())
  in
  List.iter
    (fun m ->
      ignore (matcher_for tr ~fresh:true Burg.Matcher.Table m);
      ignore (matcher_for tr ~fresh:true Burg.Matcher.Dp m))
    machines
