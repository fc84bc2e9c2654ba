(* serve-stream: the daemon path.  Each unit is one NDJSON request line
   handed to [Driver.Serve.handle], with a domain pool and a memory-only
   cache, exactly as [record serve] hosts them.  A request holds eight
   simulate jobs, each a "file" job naming a seeded [Fuzz.Gen] program
   rendered by [Dfl.Unparse], spread over the four bundled targets.  Two
   of each request's eight jobs resubmit a recent program, so cache hits
   sit beside misses, stores and evictions. *)

let jobs_per_request = 8
let resubmits = 2

(* Resubmissions pick among the last [recent] distinct programs, well
   inside the cache's 256 memory slots, so they hit. *)
let recent = 64

let gen_config = Fuzz.Gen.sized 6

(* The first requests of every run, whatever the seed: words, cycles and
   the compiled share are totals over them. *)
let reference_requests = 40
let reference_campaign = 0

type job = {
  file : string;
  target : string;
  inputs : (string * int array) list;
  expected : (string * int array) list;
}

type request = { line : string; jobs : job array }

let job_json j =
  let open Driver.Json in
  Obj
    [
      ("file", String j.file);
      ("target", String j.target);
      ("kind", String "simulate");
      ( "inputs",
        Obj
          (List.map
             (fun (name, vs) ->
               (name, List (Array.to_list (Array.map (fun v -> Int v) vs))))
             j.inputs) );
    ]

(* Requests from one fuzz campaign: fresh programs, each kept only if it
   is inside the strict fixed-point contract on its target (no [sat]
   argument leaves the word either, so every case has one defined answer
   on every machine), with its reference outputs from [Ir.Eval].  Exactly
   [resubmits] of each request's jobs repeat a recent program. *)
let generate_requests ~dir ~campaign ~count ~recent_jobs =
  let st = Random.State.make [| campaign; 0x5e7e |] in
  let machines = Array.of_list (Common.bundled ()) in
  let index = ref 0 in
  let made = ref recent_jobs in
  let rec fresh () =
    let i = !index in
    incr index;
    let case = Fuzz.Gen.case ~config:gen_config ~seed:campaign ~index:i () in
    let m = machines.(i mod Array.length machines) in
    let width = m.Target.Machine.word_bits in
    let text = Dfl.Unparse.program case.Fuzz.Gen.prog in
    let prog = Dfl.Lower.source text in
    if
      not
        (Fuzz.Oracle.within_contract ~width ~sat_headroom:false prog
           case.Fuzz.Gen.inputs)
    then fresh ()
    else begin
      let file = Filename.concat dir (Printf.sprintf "c%d-p%05d.dfl" campaign i) in
      Common.write_file file text;
      let j =
        {
          file;
          target = m.Target.Machine.name;
          inputs = case.Fuzz.Gen.inputs;
          expected = Ir.Eval.run_with_inputs ~width prog case.Fuzz.Gen.inputs;
        }
      in
      made := j :: !made;
      j
    end
  in
  let requests =
    Array.init count (fun _ ->
        let repeat = Array.make jobs_per_request false in
        for _ = 1 to resubmits do
          (* distinct positions: retry until a fresh slot is drawn *)
          let rec place () =
            let k = Random.State.int st jobs_per_request in
            if repeat.(k) then place () else repeat.(k) <- true
          in
          place ()
        done;
        let jobs =
          Array.map
            (fun again ->
              match !made with
              | _ :: _ when again ->
                List.nth !made (Random.State.int st (min recent (List.length !made)))
              | _ -> fresh ())
            repeat
        in
        let doc =
          Driver.Json.Obj
            [ ("jobs", Driver.Json.List (Array.to_list (Array.map job_json jobs))) ]
        in
        { line = Driver.Json.to_string doc; jobs })
  in
  (requests, !made)

(* The client's check of one reply line. *)
let check (req : request) reply =
  let open Driver.Json in
  let fail msg =
    {
      Common.empty with
      jobs = Array.length req.jobs;
      failed = Array.length req.jobs;
      problems = [ msg ];
    }
  in
  let results =
    match of_string reply with
    | Error msg -> Error ("unreadable reply: " ^ msg)
    | Ok doc -> (
      match Option.bind (member "results" doc) to_list with
      | Some rs when List.length rs = Array.length req.jobs -> Ok rs
      | Some _ | None ->
        Error
          ("error reply: "
          ^ Option.value ~default:reply (Option.bind (member "error" doc) to_string_lit)))
  in
  match results with
  | Error msg -> fail msg
  | Ok rs ->
    List.fold_left Common.merge Common.empty
      (List.mapi
         (fun i r ->
           let job = req.jobs.(i) in
           let field k = Option.bind (member "result" r) (member k) in
           let int k = Option.bind (field k) to_int in
           let verdict =
             match Option.bind (member "status" r) to_string_lit with
             | Some "done" -> (
               let outputs =
                 match field "outputs" with
                 | Some (Obj fields) ->
                   List.map
                     (fun (name, v) ->
                       ( name,
                         Array.of_list
                           (List.map
                              (fun x -> Option.value (to_int x) ~default:min_int)
                              (Option.value (to_list v) ~default:[])) ))
                     fields
                 | Some _ | None -> []
               in
               match (int "words", int "cycles") with
               | Some words, Some cycles -> Common.Completed { words; cycles; outputs }
               | _ -> Common.Broken "reply without words or cycles")
             | Some "unsupported" -> Common.Unsupported
             | Some other -> Common.Broken ("status " ^ other)
             | None -> Common.Broken "reply without status"
           in
           Common.judge ~label:(Printf.sprintf "%s@%s" job.file job.target)
             ~expected:job.expected verdict)
         rs)

let run_traced tr ~cache (req : request) =
  let doc =
    Trace.span tr "protocol.parse" (fun () -> Driver.Json.of_string req.line)
  in
  let jobs =
    match doc with
    | Error msg -> Error msg
    | Ok doc -> Trace.span tr "protocol.decode" (fun () -> Driver.Protocol.jobs_of_json doc)
  in
  match jobs with
  | Error msg -> Driver.Json.to_string (Driver.Json.Obj [ ("error", Driver.Json.String msg) ])
  | Ok jobs ->
    (* Probe: the lowering that decoding each file job did, on its own. *)
    Array.iter
      (fun j ->
        Trace.span tr "dfl.lower" (fun () ->
            let text = Common.read_file j.file in
            Trace.add tr "dfl.bytes" (float_of_int (String.length text));
            ignore (Dfl.Lower.source text)))
      req.jobs;
    let results = List.map (Common.run_job tr ~cache) jobs in
    Trace.span tr "job.encode" (fun () ->
        Driver.Json.to_string (Driver.Job.results_to_json ~jobs results))

(* Seeded requests after the reference ones; a hundred leave ten requests
   beyond the 90th percentile.  A program's second compile in a process
   is cheaper than its first (the matchers keep the transitions they
   built, the intern table its nodes), so a request does the same work
   again only in a fresh process: every process sends the same requests
   and stops, and run.py starts fresh processes until the window has
   passed. *)
let seeded_requests = 100

let setup trace =
  (match trace with Some tr -> Common.traced_warm tr | None -> ());
  let pool = Driver.Pool.create () in
  let cache = Driver.Cache.create () in
  let config =
    { Driver.Serve.domains = Driver.Pool.size pool; deterministic = false; cache = Some cache; matcher = None }
  in
  let state = Driver.Serve.fresh_state () in
  let generate ~seed =
    let dir = Filename.concat Common.out_dir (Printf.sprintf "serve-stream-seed%d" seed) in
    Common.mkdir_p dir;
    (* The reference requests come from a campaign of their own, the same
       for every seed; the rest from the seed's. *)
    let reference, recent_jobs =
      generate_requests ~dir ~campaign:reference_campaign ~count:reference_requests
        ~recent_jobs:[]
    in
    let seeded, _ =
      generate_requests ~dir ~campaign:(seed + 1) ~count:seeded_requests ~recent_jobs
    in
    let requests = Array.append reference seeded in
    {
      Common.units = Array.length requests;
      work_per_unit = 1;
      prefix = reference_requests;
      cycle = seeded_requests;
      run =
        (fun i ->
          let reply, ms =
            Common.time_ms (fun () ->
                Driver.Json.to_string
                  (fst (Driver.Serve.handle pool config state requests.(i).line)))
          in
          (check requests.(i) reply, ms));
      run_traced =
        (fun tr i ->
          let reply, ms =
            Common.time_ms (fun () ->
                Trace.unit_span tr i (fun () -> run_traced tr ~cache requests.(i)))
          in
          (check requests.(i) reply, ms));
    }
  in
  { Common.generate; shutdown = (fun () -> Driver.Pool.shutdown pool) }
