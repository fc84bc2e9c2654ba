type kind =
  | Compile
  | Simulate
  | Timing of { deadline : int option }

type t = {
  id : int;
  label : string;
  source : string;
  target : string;
  options_label : string;
  options : Record.Options.t;
  prog : Ir.Prog.t;
  inputs : (string * int array) list;
  kind : kind;
}

let make ~id ?label ?(source = "inline") ~target ?options_label ?options
    ?(inputs = []) ?(kind = Compile) prog =
  let options_label, options =
    match (options_label, options) with
    | Some l, Some o -> (l, o)
    | Some "conventional", None -> ("conventional", Record.Options.conventional)
    | Some l, None -> (l, Record.Options.record_)
    | None, Some o -> ("custom", o)
    | None, None -> ("record", Record.Options.record_)
  in
  let label =
    match label with
    | Some l -> l
    | None ->
      Printf.sprintf "%s@%s/%s" prog.Ir.Prog.name target options_label
  in
  { id; label; source; target; options_label; options; prog; inputs; kind }

type success = {
  words : int;
  instrs : int;
  stats : Record.Pipeline.stats;
  selection : Record.Pipeline.selection_stats;
  cycles : int option;
  outputs : (string * int array) list;
  static_cycles : int option;
  deadline_met : bool option;
  asm : string;
  key : string;
  cache : Service.provenance;
  wall_ms : float;
  phase_ms : (string * float) list;
}

type status =
  | Done of success
  | Unsupported of string
  | Failed of string
  | Timed_out of float
  | Crashed of string

type result = { job : int; label : string; status : status }

(* ---- execution ----------------------------------------------------------- *)

let run ?cache ?timeout job =
  let execute () =
    match Registry.find_machine job.target with
    | Error msg -> Failed msg
    | Ok machine -> (
      match Service.compile ?cache ~options:job.options machine job.prog with
      | exception Record.Pipeline.Error msg -> Unsupported msg
      | outcome -> (
        let c = outcome.Service.compiled in
        let base =
          {
            words = Record.Pipeline.words c;
            instrs = Target.Asm.instr_count c.Record.Pipeline.asm;
            stats = c.Record.Pipeline.stats;
            selection = c.Record.Pipeline.selection;
            cycles = None;
            outputs = [];
            static_cycles = None;
            deadline_met = None;
            asm = Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm;
            key = outcome.Service.key;
            cache = outcome.Service.provenance;
            wall_ms = outcome.Service.wall_ms;
            phase_ms = c.Record.Pipeline.phase_ms;
          }
        in
        match job.kind with
        | Compile -> Done base
        | Simulate -> (
          match Record.Pipeline.execute c ~inputs:job.inputs with
          | exception Sim.Mode_violation msg ->
            Failed ("mode violation: " ^ msg)
          | exception Sim.Exec_error msg -> Failed ("exec error: " ^ msg)
          | outputs, cycles -> Done { base with cycles = Some cycles; outputs })
        | Timing { deadline } ->
          let report = Record.Timing.analyze c in
          let met =
            Option.map
              (fun d -> Record.Timing.meets_deadline c ~deadline:d)
              deadline
          in
          Done
            {
              base with
              static_cycles = Some report.Record.Timing.cycles;
              deadline_met = met;
            }))
  in
  let status =
    match timeout with
    | None -> execute ()
    | Some seconds -> (
      try Sim.Deadline.within seconds execute
      with Sim.Deadline.Expired -> Timed_out seconds)
  in
  { job = job.id; label = job.label; status }

(* ---- json ---------------------------------------------------------------- *)

let kind_name = function
  | Compile -> "compile"
  | Simulate -> "simulate"
  | Timing _ -> "timing"

let to_json job =
  let deadline_fields =
    match job.kind with
    | Timing { deadline = Some d } -> [ ("deadline", Json.Int d) ]
    | Timing { deadline = None } | Compile | Simulate -> []
  in
  Json.Obj
    ([
       ("id", Json.Int job.id);
       ("label", Json.String job.label);
       ("source", Json.String job.source);
       ("target", Json.String job.target);
       ("options", Json.String job.options_label);
       ( "selection",
         Json.String
           (Record.Options.selection_mode_name
              job.options.Record.Options.selection_mode) );
       ( "matcher",
         Json.String
           (Burg.Matcher.engine_name job.options.Record.Options.matcher) );
       ("options_digest", Json.String (Record.Options.digest job.options));
       ("kind", Json.String (kind_name job.kind));
     ]
    @ deadline_fields)

let stats_to_json (s : Record.Pipeline.stats) =
  Json.Obj
    [
      ("variants_tried", Json.Int s.Record.Pipeline.variants_tried);
      ("cover_cost", Json.Int s.Record.Pipeline.cover_cost);
      ("peephole_removed", Json.Int s.Record.Pipeline.peephole_removed);
      ("mode_changes", Json.Int s.Record.Pipeline.mode_changes);
      ("agu_streams", Json.Int s.Record.Pipeline.agu_streams);
    ]

let selection_to_json (s : Record.Pipeline.selection_stats) =
  Json.Obj
    [
      ("trees", Json.Int s.Record.Pipeline.sel_trees);
      ("variants", Json.Int s.Record.Pipeline.sel_variants);
      ("variants_pruned", Json.Int s.Record.Pipeline.sel_variants_pruned);
      ("variant_dedup", Json.Int s.Record.Pipeline.sel_variant_dedup);
      ("variant_nodes", Json.Int s.Record.Pipeline.sel_variant_nodes);
      ("nodes_labelled", Json.Int s.Record.Pipeline.sel_nodes_labelled);
      ("memo_hits", Json.Int s.Record.Pipeline.sel_memo_hits);
      ("dag_cuts", Json.Int s.Record.Pipeline.sel_dag_cuts);
      ("cross_tree_cse", Json.Int s.Record.Pipeline.sel_cross_tree_cse);
      ("states", Json.Int s.Record.Pipeline.sel_states);
      ("state_prunes", Json.Int s.Record.Pipeline.sel_state_prunes);
      ("table_build_ms", Json.Float s.Record.Pipeline.sel_table_build_ms);
    ]

let outputs_to_json outputs =
  Json.Obj
    (List.map
       (fun (name, values) ->
         (name, Json.List (List.map (fun v -> Json.Int v) (Array.to_list values))))
       outputs)

let phase_ms_to_json spans =
  Json.List
    (List.map
       (fun (phase, ms) ->
         Json.Obj [ ("phase", Json.String phase); ("ms", Json.Float ms) ])
       spans)

let opt_int = function Some k -> Json.Int k | None -> Json.Null
let opt_bool = function Some b -> Json.Bool b | None -> Json.Null

let success_to_json ~deterministic s =
  let core =
    [
      ("words", Json.Int s.words);
      ("instrs", Json.Int s.instrs);
      ("stats", stats_to_json s.stats);
      ("cycles", opt_int s.cycles);
      ("outputs", outputs_to_json s.outputs);
      ("static_cycles", opt_int s.static_cycles);
      ("deadline_met", opt_bool s.deadline_met);
      ("asm_digest", Json.String (Digest.to_hex (Digest.string s.asm)));
      ("key", Json.String s.key);
    ]
  in
  let volatile =
    if deterministic then []
    else
      [
        ("cache", Json.String (Service.provenance_name s.cache));
        ("wall_ms", Json.Float s.wall_ms);
        ("phase_ms", phase_ms_to_json s.phase_ms);
        (* Volatile like phase_ms: the matcher-side counters are deltas
           against a DP table shared across the jobs of one worker, so
           they depend on scheduling, not on the job alone. *)
        ("selection", selection_to_json s.selection);
      ]
  in
  Json.Obj (core @ volatile)

let result_to_json ?(deterministic = false) r =
  let status_fields =
    match r.status with
    | Done s ->
      [ ("status", Json.String "done"); ("result", success_to_json ~deterministic s) ]
    | Unsupported msg ->
      [ ("status", Json.String "unsupported"); ("error", Json.String msg) ]
    | Failed msg ->
      [ ("status", Json.String "failed"); ("error", Json.String msg) ]
    | Timed_out secs ->
      [
        ("status", Json.String "timeout");
        ("timeout_s", Json.Float secs);
      ]
    | Crashed msg ->
      [ ("status", Json.String "crashed"); ("error", Json.String msg) ]
  in
  Json.Obj
    ([ ("job", Json.Int r.job); ("label", Json.String r.label) ] @ status_fields)

let cache_summary results =
  let hits, misses =
    List.fold_left
      (fun (h, m) r ->
        match r.status with
        | Done s -> if Service.is_hit s.cache then (h + 1, m) else (h, m + 1)
        | Unsupported _ | Failed _ | Timed_out _ | Crashed _ -> (h, m))
      (0, 0) results
  in
  let total = hits + misses in
  Json.Obj
    [
      ("hits", Json.Int hits);
      ("misses", Json.Int misses);
      ( "hit_rate",
        if total = 0 then Json.Null
        else Json.Float (float_of_int hits /. float_of_int total) );
    ]

let results_to_json ?(deterministic = false) ~jobs results =
  let fields =
    [
      ("protocol", Json.String "record-batch-1");
      ("jobs", Json.List (List.map to_json jobs));
      ( "results",
        Json.List (List.map (result_to_json ~deterministic) results) );
    ]
  in
  let fields =
    if deterministic then fields
    else fields @ [ ("cache", cache_summary results) ]
  in
  Json.Obj fields
