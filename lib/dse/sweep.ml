type config = {
  seed : int;
  samples : int;
  kernels : string list;
  domains : int;
  cache : Driver.Cache.t option;
  selection : Record.Options.selection_mode;
  matcher : Burg.Matcher.engine;
}

type result = {
  config : config;
  points : Sample.point list;
  unique_architectures : int;
  scores : Score.t list;
  front : Score.t list;
  report : Driver.Batch.report;
  completed : int;
  hits : int;
}

let default_kernels () =
  List.map (fun (k : Dspstone.Kernels.t) -> k.Dspstone.Kernels.name)
    Dspstone.Kernels.all

let find_kernel name =
  match Dspstone.Kernels.find name with
  | k -> k
  | exception Not_found ->
    invalid_arg
      (Printf.sprintf "Dse.Sweep: unknown kernel %s (available: %s)" name
         (String.concat ", " (default_kernels ())))

(* One machine per unique parameter set. A name already resolvable was
   registered by an earlier sweep in this process; its machine value is
   structurally identical (names encode the full parameter record), so
   re-using it keeps Registry.matcher_for's automaton warm instead of
   forcing a rebuild against a physically new grammar. *)
let machine_for (point : Sample.point) =
  match Driver.Registry.find_machine point.Sample.name with
  | Ok m -> m
  | Error _ ->
    let m = Target.Asip.machine ~name:point.Sample.name point.Sample.params in
    Driver.Registry.register m;
    m

let run config =
  if config.samples < 1 then invalid_arg "Dse.Sweep: samples must be >= 1";
  if config.kernels = [] then invalid_arg "Dse.Sweep: empty kernel workload";
  let kernels = List.map find_kernel config.kernels in
  let progs =
    List.map (fun k -> (k, Dspstone.Kernels.prog k)) kernels
  in
  let points = Sample.points ~seed:config.seed ~count:config.samples in
  let seen = Hashtbl.create 64 in
  List.iter
    (fun (p : Sample.point) ->
      if not (Hashtbl.mem seen p.Sample.name) then begin
        Hashtbl.add seen p.Sample.name ();
        ignore (machine_for p)
      end)
    points;
  let unique_architectures = Hashtbl.length seen in
  let jobs =
    List.concat_map
      (fun (p : Sample.point) ->
        List.mapi
          (fun ki ((k : Dspstone.Kernels.t), prog) ->
            Driver.Job.make
              ~id:((p.Sample.index * List.length progs) + ki)
              ~source:(Printf.sprintf "dse sample %d" p.Sample.index)
              ~target:p.Sample.name ~options_label:"record"
              ~options:
                (Record.Options.with_matcher config.matcher
                   (Record.Options.with_selection_mode config.selection
                      Record.Options.record_))
              ~inputs:k.Dspstone.Kernels.inputs ~kind:Driver.Job.Simulate prog)
          progs)
      points
  in
  let report =
    Driver.Batch.run ~domains:config.domains ?cache:config.cache jobs
  in
  (* Results come back in job-id order whatever the domain interleaving,
     so consecutive chunks of |kernels| results belong to one sample. *)
  let nk = List.length progs in
  let rec split i acc rs =
    if i = 0 then (List.rev acc, rs)
    else
      match rs with
      | r :: rs -> split (i - 1) (r :: acc) rs
      | [] -> invalid_arg "Dse.Sweep: result list shorter than job list"
  in
  let rec chunk points results =
    match points with
    | [] -> []
    | p :: rest ->
      let mine, remaining = split nk [] results in
      let statuses =
        List.map2
          (fun ((k : Dspstone.Kernels.t), _) (r : Driver.Job.result) ->
            (k.Dspstone.Kernels.name, r.Driver.Job.status))
          progs mine
      in
      Score.of_results p statuses :: chunk rest remaining
  in
  let scores = chunk points report.Driver.Batch.results in
  let front =
    Pareto.front Score.objectives
      (List.filter (fun (s : Score.t) -> s.Score.complete) scores)
  in
  {
    config;
    points;
    unique_architectures;
    scores;
    front;
    report;
    completed = Driver.Batch.completed report;
    hits = Driver.Batch.hits report;
  }

let hit_rate r =
  if r.completed = 0 then 0.0
  else float_of_int r.hits /. float_of_int r.completed

(* ---- json ---------------------------------------------------------------- *)

let cost_model_doc =
  "gates = 1000 + 2500*mul + 800*mac + 150*sat + 600*accumulators + \
   120*address_regs + 40*imm_bits"

let front_entry_to_json (s : Score.t) =
  Driver.Json.Obj
    [
      ("sample", Driver.Json.Int s.Score.point.Sample.index);
      ("name", Driver.Json.String s.Score.point.Sample.name);
      ("words", Driver.Json.Int s.Score.total_words);
      ("cycles", Driver.Json.Int s.Score.total_cycles);
      ("cost", Driver.Json.Int s.Score.cost);
    ]

let to_json r =
  let complete =
    List.length (List.filter (fun (s : Score.t) -> s.Score.complete) r.scores)
  in
  Driver.Json.Obj
    [
      ("protocol", Driver.Json.String "record-dse-1");
      ("seed", Driver.Json.Int r.config.seed);
      ("samples", Driver.Json.Int r.config.samples);
      ( "kernels",
        Driver.Json.List
          (List.map (fun k -> Driver.Json.String k) r.config.kernels) );
      ( "selection",
        Driver.Json.String
          (Record.Options.selection_mode_name r.config.selection) );
      ("cost_model", Driver.Json.String cost_model_doc);
      ("unique_architectures", Driver.Json.Int r.unique_architectures);
      ("complete_architectures", Driver.Json.Int complete);
      ( "architectures",
        Driver.Json.List (List.map Score.to_json r.scores) );
      ("pareto", Driver.Json.List (List.map front_entry_to_json r.front));
      ("pareto_size", Driver.Json.Int (List.length r.front));
    ]

(* ---- text ---------------------------------------------------------------- *)

let pp_summary ppf r =
  let n_scores = List.length r.scores in
  let complete =
    List.length (List.filter (fun (s : Score.t) -> s.Score.complete) r.scores)
  in
  Format.fprintf ppf
    "dse sweep: seed %d, %d samples (%d unique architectures), %d kernels, \
     %d jobs on %d domain%s@."
    r.config.seed r.config.samples r.unique_architectures
    (List.length r.config.kernels)
    (List.length r.report.Driver.Batch.results)
    r.config.domains
    (if r.config.domains = 1 then "" else "s");
  Format.fprintf ppf
    "jobs: %d completed, %d cache hits (%.0f%% hit rate), %.1f ms@."
    r.completed r.hits
    (100.0 *. hit_rate r)
    r.report.Driver.Batch.wall_ms;
  Format.fprintf ppf "architectures: %d complete, %d incomplete@." complete
    (n_scores - complete);
  (* Which kernels rule out corners of the cube, and how often. *)
  List.iter
    (fun kernel ->
      let failures =
        List.length
          (List.filter
             (fun (s : Score.t) ->
               List.exists
                 (fun (k : Score.kernel_score) ->
                   k.Score.kernel = kernel && not k.Score.ok)
                 s.Score.kernels)
             r.scores)
      in
      if failures > 0 then
        Format.fprintf ppf "  %s unsupported on %d architecture%s@." kernel
          failures
          (if failures = 1 then "" else "s"))
    r.config.kernels;
  Format.fprintf ppf "pareto front (%d of %d complete architectures):@."
    (List.length r.front) complete;
  Format.fprintf ppf "  %-22s %8s %8s %8s@." "architecture" "words" "cycles"
    "gates";
  List.iter
    (fun (s : Score.t) ->
      Format.fprintf ppf "  %-22s %8d %8d %8d@." s.Score.point.Sample.name
        s.Score.total_words s.Score.total_cycles s.Score.cost)
    r.front;
  match r.config.cache with
  | None -> ()
  | Some cache ->
    let c = Driver.Cache.counters cache in
    Format.fprintf ppf
      "cache: %d memory hits, %d disk hits, %d misses, %d stores, %d \
       evictions@."
      c.Driver.Cache.memory_hits c.Driver.Cache.disk_hits
      c.Driver.Cache.misses c.Driver.Cache.stores c.Driver.Cache.evictions
