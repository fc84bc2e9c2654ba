(* The benchmark driver: set up one workload, run its units in a closed
   loop for the given number of seconds, check every output against the
   reference interpreter, and print the metrics.

     perfbench --workload NAME --seed N --seconds S --trace 0|1
     perfbench --workload NAME --probe-setup

   With --trace 0 it prints the end-to-end metrics; with --trace 1 it
   runs the same units, every odd one (and all of the fixed prefix)
   through the traced path, and prints the per-layer metrics.  The last
   line of standard output is one JSON object; run.py adds the set-up
   time, pools the latencies of a run's processes into throughput and
   percentiles, and rewrites it into the benchmark's result line. *)

let workloads =
  [
    ("serve-stream", Serve_stream.setup);
    ("dsp-long", Dsp_long.setup);
    ("dse-farm", Dse_farm.setup);
  ]

let median xs =
  match List.sort compare xs with
  | [] -> 0.0
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let mean xs = ratio (List.fold_left ( +. ) 0.0 xs) (float_of_int (List.length xs))

let peak_rss_mb () =
  match
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.find_map (fun line ->
           Scanf.sscanf_opt line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0))
  with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* ---- the closed loop ------------------------------------------------------ *)

type run = {
  all : Common.outcome;  (** every unit run *)
  prefix : Common.outcome;  (** the fixed prefix *)
  window_units : int;  (** units completed inside the timed window *)
  plain_ms : float list;  (** untraced unit latencies inside the window, newest first *)
  traced_ms : float list;  (** traced unit latencies, whole run *)
  plain_after_prefix : float list;
  traced_after_prefix : float list;
  traced_units : int;
  minor_words : float;  (** allocated by traced units *)
  major_collections : int;  (** during traced units *)
  peak_mb : float;  (** [peak_rss_mb] once [rss_passes] passes are done *)
}

(* Peak memory is read after the prefix and this many passes over the
   repeated units (or when the loop ends, if sooner): a fixed amount of
   work, so a host that runs more units in the window does not move it,
   while memory that grows with every unit still shows. *)
let rss_passes = 4

let run_loop (r : Common.runner) ~seconds trace =
  let acc =
    ref
      {
        all = Common.empty;
        prefix = Common.empty;
        window_units = 0;
        plain_ms = [];
        traced_ms = [];
        plain_after_prefix = [];
        traced_after_prefix = [];
        traced_units = 0;
        minor_words = 0.0;
        major_collections = 0;
        peak_mb = 0.0;
      }
  in
  let step i ~timed =
    let a = !acc in
    let o, a =
      match trace with
      | Some tr when i < r.Common.prefix || i land 1 = 1 ->
        let words0 = Gc.minor_words () and major0 = (Gc.quick_stat ()).Gc.major_collections in
        let o, ms = r.Common.run_traced tr i in
        let a =
          {
            a with
            traced_ms = ms :: a.traced_ms;
            traced_after_prefix =
              (if i >= r.Common.prefix then ms :: a.traced_after_prefix
               else a.traced_after_prefix);
            traced_units = a.traced_units + 1;
            minor_words = a.minor_words +. Gc.minor_words () -. words0;
            major_collections =
              a.major_collections + (Gc.quick_stat ()).Gc.major_collections - major0;
          }
        in
        (o, a)
      | Some _ | None ->
        let o, ms = r.Common.run i in
        let a =
          {
            a with
            plain_ms = (if timed then ms :: a.plain_ms else a.plain_ms);
            plain_after_prefix =
              (if i >= r.Common.prefix then ms :: a.plain_after_prefix
               else a.plain_after_prefix);
          }
        in
        (o, a)
    in
    acc :=
      {
        a with
        all = Common.merge a.all o;
        prefix = (if i < r.Common.prefix then Common.merge a.prefix o else a.prefix);
        window_units = (if timed then a.window_units + 1 else a.window_units);
      }
  in
  let mark = r.Common.prefix + (rss_passes * r.Common.cycle) in
  let t0 = Unix.gettimeofday () in
  let i = ref 0 in
  while !i < r.Common.units && Unix.gettimeofday () -. t0 < seconds do
    step !i ~timed:true;
    incr i;
    if !i = mark then acc := { !acc with peak_mb = peak_rss_mb () }
  done;
  (* The prefix completes in every run, so its totals repeat exactly. *)
  while !i < r.Common.prefix do
    step !i ~timed:false;
    incr i
  done;
  if !i < mark then acc := { !acc with peak_mb = peak_rss_mb () };
  !acc

(* ---- metrics -------------------------------------------------------------- *)

(* The end-to-end figures this process can give alone; run.py computes
   throughput and latency percentiles from the latencies, pooled over
   every process of the run. *)
let end_to_end run =
  let p = run.prefix in
  [
    ("compiled_share", "fraction", ratio (float_of_int p.Common.compiled) (float_of_int p.Common.jobs));
    ("code_words", "words", float_of_int p.Common.words);
    ("sim_cycles", "cycles", float_of_int p.Common.cycles);
    ("peak_rss_mb", "MB", run.peak_mb);
  ]

(* The one-shot compiled engine (prepare + run) against the interpreter,
   bucketed by the job's dynamic instruction count. *)
let sim_buckets = [ ("lt100", 100.0); ("lt1k", 1e3); ("lt10k", 1e4); ("ge10k", infinity) ]

let bucket_of dyn =
  fst (List.find (fun (_, limit) -> dyn < limit) sim_buckets)

let sim_evidence tr =
  let sims = Trace.events tr "sim" in
  let get k e = List.assoc k e in
  List.map
    (fun (name, _) ->
      let mine = List.filter (fun e -> bucket_of (get "dynamic_instrs" e) = name) sims in
      let sum k = List.fold_left (fun acc e -> acc +. get k e) 0.0 mine in
      ( name,
        List.length mine,
        sum "prepare_ms" +. sum "run_ms",
        sum "interp_ms" ))
    sim_buckets

let per_layer tr run ~hashcons0 =
  let n = float_of_int (max 1 run.traced_units) in
  let self = Trace.self_ms_by_name tr in
  let total name = Option.value (Hashtbl.find_opt self name) ~default:0.0 in
  let per_unit name = total name /. n in
  let c = Trace.counter tr in
  let builds = Trace.events tr "burg.build" in
  let build_mean k = mean (List.map (List.assoc k) builds) in
  let sims = Trace.events tr "sim" in
  let sim_sum k = List.fold_left (fun acc e -> acc +. List.assoc k e) 0.0 sims in
  let hc = Ir.Hashcons.stats () in
  let hc_hits = float_of_int (hc.Ir.Hashcons.hits - hashcons0.Ir.Hashcons.hits)
  and hc_misses = float_of_int (hc.Ir.Hashcons.misses - hashcons0.Ir.Hashcons.misses) in
  let compiles = c "select.compiles" in
  (* On serve-stream, decoding a file job reads and lowers the file; the
     probe spans named dfl.lower time that part on its own, so it is
     taken out of the protocol's time (elsewhere dfl.lower is on the path). *)
  let lowering_probed = total "protocol.decode" > 0.0 in
  let protocol =
    if lowering_probed then
      Float.max 0.0
        (per_unit "protocol.parse" +. per_unit "protocol.decode" -. per_unit "dfl.lower")
    else 0.0
  in
  (* Self ms per unit of each layer on the untraced path. *)
  let path =
    [
      ("dfl.lower_ms", per_unit "dfl.lower");
      ("protocol.decode_ms", protocol);
      ("job.encode_ms", per_unit "job.encode");
      ("service.overhead_ms", per_unit "service.compile");
      ("registry.find_machine_ms", per_unit "registry.find_machine");
      ("registry.matcher_for_ms", per_unit "registry.matcher_for");
    ]
    @ List.map
        (fun phase ->
          let layer = Common.phase_layer phase in
          (layer ^ "_ms", per_unit layer))
        [
          "validate"; "source-rewrite"; "select-emit"; "peephole"; "modeopt";
          "regalloc"; "scratchpack"; "layout"; "compaction";
        ]
    @ [
        ("sim.prepare_ms", per_unit "sim.prepare");
        ("sim.run_ms", per_unit "sim.run");
        ("dse.score_ms", per_unit "dse.score");
      ]
  in
  (* The report's account of a traced unit: every path layer, and the
     remainder no layer accounts for. *)
  let layers =
    path
    @ [
        ("dse.machine_build_unit_ms", per_unit "dse.machine_build");
        ("trace.remainder_ms", per_unit "unit");
      ]
  in
  let overhead =
    median run.traced_after_prefix -. median run.plain_after_prefix
  in
  let p = run.prefix in
  let metrics =
    List.map (fun (k, v) -> (k, "ms", v)) path
    @ [
        ("dfl.bytes_per_s", "B/s", ratio (c "dfl.bytes") (total "dfl.lower" /. 1000.0));
        ("cache.hit_share", "fraction", ratio (c "cache.hits") (c "cache.hits" +. c "cache.misses"));
        ("cache.stores", "count", c "cache.stores");
        ("cache.evictions", "count", c "cache.evictions");
        ("select.trees", "count", ratio (c "select.trees") compiles);
        ("select.variants", "count", ratio (c "select.variants") compiles);
        ("select.variant_nodes", "count", ratio (c "select.variant_nodes") compiles);
        ("select.nodes_labelled", "count", ratio (c "select.nodes_labelled") compiles);
        ( "select.memo_hit_share", "fraction",
          ratio (c "select.memo_hits") (c "select.memo_hits" +. c "select.nodes_labelled") );
        ("select.state_prunes", "count", ratio (c "select.state_prunes") compiles);
        ("hashcons.live", "count", float_of_int hc.Ir.Hashcons.live);
        ("hashcons.hit_share", "fraction", ratio hc_hits (hc_hits +. hc_misses));
        ("burg.builds", "count", float_of_int (List.length builds));
        ("burg.create_ms", "ms", build_mean "create_ms");
        ("burg.live_at_build", "count", build_mean "hashcons_live");
        ("burg.states", "count", build_mean "states");
        ("burg.transitions", "count", build_mean "transitions");
        ("burg.table_build_ms", "ms", build_mean "table_build_ms");
        ("sim.interp_ms", "ms", per_unit "sim.interp");
        ("sim.dynamic_instrs", "count", sim_sum "dynamic_instrs" /. n);
        ("sim.run_ips", "1/s", ratio (sim_sum "dynamic_instrs") (sim_sum "run_ms" /. 1000.0));
        ( "sim.oneshot_over_interp", "ratio",
          ratio (sim_sum "prepare_ms" +. sim_sum "run_ms") (sim_sum "interp_ms") );
      ]
    @ List.map
        (fun (name, _, oneshot, interp) ->
          ("sim.oneshot_over_interp." ^ name, "ratio", ratio oneshot interp))
        (sim_evidence tr)
    @ [
        ("dse.machine_build_ms", "ms", mean (Trace.durations_ms tr "dse.machine_build"));
        ("dse.unique_share", "fraction", ratio (c "dse.unique") (c "dse.draws"));
        ("dse.new_share", "fraction", ratio (c "dse.new") (c "dse.draws"));
        ("gc.minor_words_per_unit", "words", run.minor_words /. n);
        ("gc.major_collections", "count", float_of_int run.major_collections);
        ("trace.units", "count", float_of_int run.traced_units);
        ("trace.unit_ms", "ms", median run.traced_ms);
        ("trace.remainder_ms", "ms", per_unit "unit");
        ( "trace.probe_ms", "ms",
          per_unit "sim.interp" +. if lowering_probed then per_unit "dfl.lower" else 0.0 );
        ("trace.overhead_ms", "ms", overhead);
        ("check.code_words", "words", float_of_int p.Common.words);
        ("check.sim_cycles", "cycles", float_of_int p.Common.cycles);
        ( "check.compiled_share", "fraction",
          ratio (float_of_int p.Common.compiled) (float_of_int p.Common.jobs) );
      ]
  in
  (metrics, layers)

(* ---- output --------------------------------------------------------------- *)

let json_metrics metrics =
  let open Driver.Json in
  Obj
    (List.map
       (fun (name, unit, v) ->
         (name, Obj [ ("value", Float v); ("unit", String unit) ]))
       metrics)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  let probe = ref false and commit = ref "unknown" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed loop");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics");
      ("--probe-setup", Arg.Set probe, " set up, print the ready time, exit");
      ("--commit", Arg.Set_string commit, "REV recorded in the provenance");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  if !seed < 0 then begin
    prerr_endline "--seed must be a non-negative integer";
    exit 2
  end;
  let setup =
    match List.assoc_opt !workload workloads with
    | Some s -> s
    | None ->
      Printf.eprintf "unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map fst workloads));
      exit 2
  in
  let tr = if !trace = 1 then Some (Trace.create ()) else None in
  let system = setup tr in
  let ready_at = Unix.gettimeofday () in
  if !probe then begin
    system.Common.shutdown ();
    Printf.printf "{\"ready_at\": %.6f}\n" ready_at;
    exit 0
  end;
  let runner, inputs_ms =
    Common.time_ms (fun () ->
        system.Common.generate ~seed:!seed)
  in
  let hashcons0 = Ir.Hashcons.stats () in
  let run = run_loop runner ~seconds:!seconds tr in
  system.Common.shutdown ();
  let nproc = Domain.recommended_domain_count () in
  let provenance =
    [
      ("workload", Driver.Json.String !workload);
      ("seed", Driver.Json.Int !seed);
      ("seconds", Driver.Json.Float !seconds);
      ("trace", Driver.Json.Int !trace);
      ("nproc", Driver.Json.Int nproc);
      ("pool_width", Driver.Json.Int (Driver.Pool.default_domains ()));
      ("ocaml", Driver.Json.String Sys.ocaml_version);
      ("commit", Driver.Json.String !commit);
      ("scaling_evidence", Driver.Json.Bool (nproc >= 2));
    ]
  in
  let metrics, layers, evidence =
    match tr with
    | None -> (end_to_end run, [], [])
    | Some tr ->
      let metrics, layers = per_layer tr run ~hashcons0 in
      (metrics, layers, sim_evidence tr)
  in
  let all = run.all in
  let correct = all.Common.failed = 0 in
  (* ---- human report ---- *)
  Printf.printf "workload %s, seed %d, %gs, trace %d: %d units in the window, %d jobs, %d failed\n"
    !workload !seed !seconds !trace run.window_units all.Common.jobs all.Common.failed;
  Printf.printf "provenance: nproc %d, pool width %d, OCaml %s, commit %s%s; inputs generated in %.0f ms\n"
    nproc (Driver.Pool.default_domains ()) Sys.ocaml_version !commit
    (if nproc < 2 then " (nproc < 2: not evidence about scaling)" else "")
    inputs_ms;
  List.iteri
    (fun i p -> if i < 10 then Printf.printf "FAILED %s\n" p)
    all.Common.problems;
  (match List.sort (fun (_, a) (_, b) -> compare b a) layers with
  | (top, ms) :: _ ->
    let unit_ms = List.fold_left (fun acc (_, v) -> acc +. v) 0.0 layers in
    Printf.printf "dominant layer: %s, %.3f ms of %.3f ms per traced unit (%.0f%%)\n" top ms
      unit_ms (100.0 *. ratio ms unit_ms)
  | [] -> ());
  List.iter
    (fun (name, count, oneshot, interp) ->
      if count > 0 then
        Printf.printf "sim %-5s dynamic instrs: %4d jobs, prepare+run %.3f ms vs interp %.3f ms (%.2fx)\n"
          name count oneshot interp (ratio oneshot interp))
    evidence;
  (* Untraced, run.py prints the end-to-end metrics once it has them all. *)
  if Option.is_some tr then
    List.iter
      (fun (name, unit, v) -> Printf.printf "  %-36s %14.4f %s\n" name v unit)
      metrics;
  (* ---- files: full report, and the spans when traced ---- *)
  let tag = Printf.sprintf "%s-seed%d-trace%d" !workload !seed !trace in
  Common.mkdir_p Common.out_dir;
  let report =
    Driver.Json.Obj
      ([
         ("provenance", Driver.Json.Obj provenance);
         ("correct", Driver.Json.Bool correct);
         ("jobs", Driver.Json.Int all.Common.jobs);
         ("failed", Driver.Json.Int all.Common.failed);
         ("problems", Driver.Json.List (List.map (fun p -> Driver.Json.String p) all.Common.problems));
         ("inputs_ms", Driver.Json.Float inputs_ms);
         ("metrics", json_metrics metrics);
         ( "layers_ms_per_unit",
           Driver.Json.Obj (List.map (fun (k, v) -> (k, Driver.Json.Float v)) layers) );
       ]
      @
      match tr with
      | None -> []
      | Some tr ->
        [
          ( "burg_builds",
            Driver.Json.List
              (List.map
                 (fun e -> Driver.Json.Obj (List.map (fun (k, v) -> (k, Driver.Json.Float v)) e))
                 (Trace.events tr "burg.build")) );
          ( "sim_engines",
            Driver.Json.List
              (List.map
                 (fun (name, count, oneshot, interp) ->
                   Driver.Json.Obj
                     [
                       ("bucket", Driver.Json.String name);
                       ("jobs", Driver.Json.Int count);
                       ("prepare_plus_run_ms", Driver.Json.Float oneshot);
                       ("interp_ms", Driver.Json.Float interp);
                     ])
                 evidence) );
        ])
  in
  Common.write_file (Filename.concat Common.out_dir (tag ^ ".json"))
    (Driver.Json.to_string ~indent:true report ^ "\n");
  Option.iter
    (fun tr ->
      Common.write_file
        (Filename.concat Common.out_dir (Printf.sprintf "%s-seed%d.trace.json" !workload !seed))
        (Driver.Json.to_string (Trace.to_json tr) ^ "\n"))
    tr;
  (* Driver.Json prints six significant digits; the result line keeps
     every digit a measurement has. *)
  let number v =
    if Float.is_finite v then Printf.sprintf "%.17g" v
    else failwith "perfbench: a metric is not a finite number"
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"ready_at\": %s, \"work_per_unit\": %d, \"prefix\": %d, \"cycle\": %d, \"latencies_ms\": [%s], \"metrics\": {%s}}\n"
    correct all.Common.jobs all.Common.failed (number ready_at) runner.Common.work_per_unit
    runner.Common.prefix runner.Common.cycle
    (String.concat ", " (List.rev_map number run.plain_ms))
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (number v) unit)
          metrics));
  exit (if correct then 0 else 1)
