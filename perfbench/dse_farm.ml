(* dse-farm: the architecture explorer's path.  Each unit is one
   [Dse.Sweep.run] over eight ASIP samples of the parameter cube, on the
   fir / dot_product / iir_biquad_one_section workload with a pool of the
   default width and a fresh memory cache per sweep.  The loop cycles
   through a pool of seeded sweeps: the first pass draws architectures
   new to the process, so it builds their machines and BURS automata; the
   later passes score the same architectures again, as an explorer does
   when it re-ranks them, and time the sweep path itself (pool, compile
   and simulation of every kernel, scoring, Pareto front).  Throughput
   counts architectures scored. *)

let samples = 8
let kernels = [ "fir"; "dot_product"; "iir_biquad_one_section" ]

(* The first sweeps use the same seeds whatever the workload seed: words,
   cycles and the compiled share are totals over them.  The seeded pool
   takes seeds in sequence from the workload seed. *)
let reference_sweeps = 4
let seeded_sweeps = 16

let sweep_seed ~seed i =
  if i < reference_sweeps then i
  else ((seed + 1) * 100_000) + ((i - reference_sweeps) mod seeded_sweeps)

let expected =
  List.map
    (fun name -> (name, Dspstone.Kernels.reference_outputs (Dspstone.Kernels.find name)))
    kernels

(* Every completed job against the kernel's reference outputs, and every
   score against the jobs it folds. *)
let check (result : Dse.Sweep.result) =
  let nk = List.length kernels in
  let jobs =
    List.mapi
      (fun i (r : Driver.Job.result) ->
        let kernel = List.nth kernels (i mod nk) in
        Common.judge
          ~label:(Printf.sprintf "sweep %d/%s" result.Dse.Sweep.config.Dse.Sweep.seed r.Driver.Job.label)
          ~expected:(List.assoc kernel expected)
          (Common.verdict_of_status r.Driver.Job.status))
      result.Dse.Sweep.report.Driver.Batch.results
  in
  let score_problems =
    List.filter_map
      (fun (s : Dse.Score.t) ->
        let ok = List.filter (fun (k : Dse.Score.kernel_score) -> k.Dse.Score.ok) s.Dse.Score.kernels in
        let sum f = List.fold_left (fun acc k -> acc + f k) 0 ok in
        if
          s.Dse.Score.total_words = sum (fun k -> k.Dse.Score.words)
          && s.Dse.Score.total_cycles = sum (fun k -> k.Dse.Score.cycles)
          && s.Dse.Score.complete = (List.length ok = nk)
        then None
        else Some ("score of " ^ s.Dse.Score.point.Dse.Sample.name ^ " disagrees with its jobs"))
      result.Dse.Sweep.scores
  in
  let o = List.fold_left Common.merge Common.empty jobs in
  { o with failed = o.failed + List.length score_problems; problems = o.problems @ score_problems }

let config ~seed i =
  {
    Dse.Sweep.seed = sweep_seed ~seed i;
    samples;
    kernels;
    domains = Driver.Pool.default_domains ();
    cache = Some (Driver.Cache.create ());
    selection = Record.Options.Tree;
    matcher = Burg.Matcher.Table;
  }

(* [Dse.Sweep.run], call by call, sequentially on this domain. *)
let run_traced tr (config : Dse.Sweep.config) =
  let progs =
    Trace.span tr "dfl.lower" (fun () ->
        List.map
          (fun name ->
            let k = Dspstone.Kernels.find name in
            Trace.add tr "dfl.bytes" (float_of_int (String.length k.Dspstone.Kernels.source));
            (k, Dspstone.Kernels.prog k))
          config.Dse.Sweep.kernels)
  in
  let points = Dse.Sample.points ~seed:config.Dse.Sweep.seed ~count:config.Dse.Sweep.samples in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun (p : Dse.Sample.point) ->
      Trace.add tr "dse.draws" 1.0;
      if not (Hashtbl.mem seen p.Dse.Sample.name) then begin
        Hashtbl.add seen p.Dse.Sample.name ();
        Trace.add tr "dse.unique" 1.0;
        match
          Trace.span tr "registry.find_machine" (fun () ->
              Driver.Registry.find_machine p.Dse.Sample.name)
        with
        | Ok _ -> ()
        | Error _ ->
          Trace.add tr "dse.new" 1.0;
          let m =
            Trace.span tr "dse.machine_build" (fun () ->
                Target.Asip.machine ~name:p.Dse.Sample.name p.Dse.Sample.params)
          in
          Driver.Registry.register m;
          ignore (Common.matcher_for tr ~fresh:true config.Dse.Sweep.matcher m)
      end)
    points;
  let options =
    Record.Options.with_matcher config.Dse.Sweep.matcher
      (Record.Options.with_selection_mode config.Dse.Sweep.selection Record.Options.record_)
  in
  let results =
    List.map
      (fun (p : Dse.Sample.point) ->
        ( p,
          List.mapi
            (fun ki ((k : Dspstone.Kernels.t), prog) ->
              let job =
                Driver.Job.make
                  ~id:((p.Dse.Sample.index * List.length progs) + ki)
                  ~target:p.Dse.Sample.name ~options_label:"record" ~options
                  ~inputs:k.Dspstone.Kernels.inputs ~kind:Driver.Job.Simulate prog
              in
              (k.Dspstone.Kernels.name, Common.run_job tr ?cache:config.Dse.Sweep.cache job))
            progs ))
      points
  in
  let scores, front =
    Trace.span tr "dse.score" (fun () ->
        let scores =
          List.map
            (fun (p, rs) ->
              Dse.Score.of_results p
                (List.map (fun (k, (r : Driver.Job.result)) -> (k, r.Driver.Job.status)) rs))
            results
        in
        ( scores,
          Dse.Pareto.front Dse.Score.objectives
            (List.filter (fun (s : Dse.Score.t) -> s.Dse.Score.complete) scores) ))
  in
  let job_results = List.concat_map (fun (_, rs) -> List.map snd rs) results in
  {
    Dse.Sweep.config;
    points;
    unique_architectures = Hashtbl.length seen;
    scores;
    front;
    report = { Driver.Batch.results = job_results; workers = 1; wall_ms = 0.0 };
    completed = 0;
    hits = 0;
  }

let setup trace =
  (match trace with
  | Some tr -> Common.traced_warm tr
  | None -> Driver.Registry.warm ());
  let generate ~seed =
    {
      Common.units = max_int;
      work_per_unit = samples;
      prefix = reference_sweeps;
      cycle = seeded_sweeps;
      run =
        (fun i ->
          let config = config ~seed i in
          let result, ms = Common.time_ms (fun () -> Dse.Sweep.run config) in
          (check result, ms));
      run_traced =
        (fun tr i ->
          let config = config ~seed i in
          let result, ms =
            Common.time_ms (fun () -> Trace.unit_span tr i (fun () -> run_traced tr config))
          in
          (check result, ms));
    }
  in
  { Common.generate; shutdown = ignore }
