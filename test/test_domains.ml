(* Multicore safety of the shared compiler state: N domains interning the
   same subtrees must agree on canonical ids, a domain-pool batch run must
   be byte-identical to running the jobs one after another, and a job
   that times out must leave the pool as it found it.  These tests drive
   the structures the serve daemon shares across worker domains — the
   striped intern table, the matcher DP tables, the cache memory tier. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec find i = i + m <= n && (String.sub s i m = sub || find (i + 1)) in
  find 0

let temp_file suffix contents =
  let path = Filename.temp_file "record" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

(* Exit code and standard error of [record ARGS]. *)
let run_cli args =
  let err = Filename.temp_file "record" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Paths.cli ()) args err)
  in
  let msg = read_file err in
  Sys.remove err;
  (code, msg)

(* ---- concurrent interning ------------------------------------------------- *)

(* A family of structurally distinct trees with heavy subtree overlap, so
   domains race both on fresh inserts and on hits of each other's nodes. *)
let tree i =
  Ir.Tree.(
    (var "a" + const (i mod 11)) * ((var "b" - const (i mod 7)) + (var "a" + const (i mod 11))))

let rotate k xs =
  let n = List.length xs in
  let k = k mod n in
  List.filteri (fun i _ -> i >= k) xs @ List.filteri (fun i _ -> i < k) xs

let test_concurrent_interning_agrees () =
  let n_trees = 64 and n_domains = 4 in
  let indices = List.init n_trees Fun.id in
  (* Each domain interns every tree, in a different order, and reports the
     ids it saw (in tree order).  Rebuilding the tree inside the domain
     means the raw [Tree.t] values are domain-local; only the intern table
     is shared. *)
  let worker k () =
    List.map (fun i -> (Ir.Hashcons.intern (tree i)).Ir.Hashcons.id)
      (rotate k indices)
    |> fun ids ->
    List.combine (rotate k indices) ids
    |> List.sort compare |> List.map snd
  in
  let domains =
    Array.init n_domains (fun k -> Domain.spawn (worker k))
  in
  let per_domain = Array.map Domain.join domains in
  Array.iteri
    (fun k ids ->
      Alcotest.(check (list int))
        (Printf.sprintf "domain %d agrees with domain 0" k)
        per_domain.(0) ids)
    per_domain;
  (* And the ids are canonical for this process: interning again from the
     test domain reproduces them. *)
  Alcotest.(check (list int)) "main domain agrees too" per_domain.(0)
    (List.map (fun i -> (Ir.Hashcons.intern (tree i)).Ir.Hashcons.id) indices);
  (* Fresh structures, under names no other test uses: about 12,000 new
     interior nodes, so every shard's table doubles several times while
     the domains race to fill it. Neighbouring trees share a subtree. *)
  let n_fresh = 3_000 in
  let fresh j =
    let term j =
      Ir.Tree.(var (Printf.sprintf "intern_race_%d" (j mod 701)) + const j)
    in
    let a = term j and b = term (j + 1) in
    Ir.Tree.((a * b) - neg a)
  in
  let fresh_worker k () =
    let handles = Array.make n_fresh None in
    List.iter
      (fun j -> handles.(j) <- Some (Ir.Hashcons.intern (fresh j)))
      (rotate (k * n_fresh / n_domains) (List.init n_fresh Fun.id));
    Array.map Option.get handles
  in
  let before = (Ir.Hashcons.stats ()).Ir.Hashcons.live in
  let per_domain =
    Array.map Domain.join
      (Array.init n_domains (fun k -> Domain.spawn (fresh_worker k)))
  in
  Alcotest.(check bool) "at least 12,000 fresh nodes" true
    ((Ir.Hashcons.stats ()).Ir.Hashcons.live - before >= 12_000);
  Array.iteri
    (fun k handles ->
      Array.iteri
        (fun j (h : Ir.Hashcons.h) ->
          let h0 = per_domain.(0).(j) in
          if h.id <> h0.id || h.node != h0.node then
            Alcotest.failf "fresh tree %d: domain %d has id %d, domain 0 %d" j
              k h.id h0.id)
        handles)
    per_domain

(* ---- Idtab chunk edges ---------------------------------------------------- *)

(* An id-indexed table is chunked by 1,024 ids on a spine that starts at
   64 chunks.  Four domains set the ids on both sides of chunk edges,
   including edges past the initial spine, each taking every fourth id,
   so neighbours in one chunk race to install it and the spine grows
   under them.  Untouched slots read as the absent value, inside a
   touched chunk as elsewhere. *)
let test_idtab_chunk_edges () =
  let t = Ir.Idtab.create (-1) in
  let ids =
    0
    :: List.concat_map
         (fun k -> [ (k * 1024) - 1; k * 1024 ])
         [ 1; 2; 3; 63; 64; 65; 200; 1000 ]
  in
  let value id = (7 * id) + 3 in
  let worker d () =
    List.iteri (fun i id -> if i mod 4 = d then Ir.Idtab.set t id (value id)) ids
  in
  Array.iter Domain.join (Array.init 4 (fun d -> Domain.spawn (worker d)));
  List.iter
    (fun id ->
      Alcotest.(check int) (Printf.sprintf "id %d" id) (value id)
        (Ir.Idtab.get t id))
    ids;
  List.iter
    (fun id ->
      Alcotest.(check int) (Printf.sprintf "untouched id %d" id) (-1)
        (Ir.Idtab.get t id))
    [ 1; 1022; 1025; (64 * 1024) + 1; (1000 * 1024) - 2; 5 * 1024; 10_000_000 ]

let test_concurrent_matcher_labelling () =
  (* Domains racing on one matcher's DP table must all see the same
     optimal covers as a fresh single-domain matcher. *)
  let grammar = Target.Tic25.machine.Target.Machine.grammar in
  let shared = Burg.Matcher.create grammar in
  let trees = List.init 32 tree in
  let cost m t =
    Option.map Burg.Cover.cost (Burg.Matcher.best m t)
  in
  let domains =
    Array.init 4 (fun k ->
        Domain.spawn (fun () -> List.map (cost shared) (rotate k trees)
                                |> fun cs ->
                                List.combine (rotate k trees) cs
                                |> List.map snd))
  in
  (* rotate reorders both trees and costs identically, so re-sorting is
     unnecessary: compare against the same rotation of the reference. *)
  let reference = List.map (cost (Burg.Matcher.create grammar)) trees in
  Array.iteri
    (fun k costs ->
      Alcotest.(check (list (option int)))
        (Printf.sprintf "domain %d matches a fresh matcher" k)
        (rotate k reference) costs)
    (Array.map Domain.join domains)

(* ---- pool vs sequential batch --------------------------------------------- *)

let jobs_of objects =
  match Driver.Protocol.jobs_of_json (Driver.Json.List objects) with
  | Ok jobs -> jobs
  | Error msg -> Alcotest.fail msg

(* The job objects of the Table-1 jobs file. *)
let table1_objects () =
  match
    Result.map
      (fun d -> Option.bind (Driver.Json.member "jobs" d) Driver.Json.to_list)
      (Driver.Json.of_string (read_file (Paths.jobs_table1 ())))
  with
  | Ok (Some objects) -> objects
  | Ok None -> Alcotest.fail "jobs_table1.json has no jobs"
  | Error msg -> Alcotest.fail msg

let table1_jobs () = jobs_of (table1_objects ())

let doc jobs results =
  Driver.Json.to_string
    (Driver.Job.results_to_json ~deterministic:true ~jobs results)

(* 200 programs of the seed-42 size-8 fuzz corpus as simulate jobs, spread
   over the four bundled machines. *)
let fuzz_jobs () =
  let machines = Array.of_list (Driver.Registry.names ()) in
  List.mapi
    (fun i (c : Fuzz.Gen.case) ->
      Driver.Job.make ~id:i
        ~target:machines.(i mod Array.length machines)
        ~inputs:c.inputs ~kind:Driver.Job.Simulate c.prog)
    (Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 8) ~seed:42 ~count:200 ())

let test_pool_matches_sequential () =
  let jobs = table1_jobs () in
  let sequential = List.map Driver.Job.run jobs in
  let pooled = (Driver.Batch.run ~domains:4 jobs).Driver.Batch.results in
  Alcotest.(check string) "4-domain run byte-identical to sequential"
    (doc jobs sequential) (doc jobs pooled);
  (* Table-1 jobs intern few new nodes. On an emptied intern table, the
     pool's domains race to intern every tree and variant of these
     programs, and to label them, before the sequential run sees them. *)
  let jobs = fuzz_jobs () in
  Ir.Hashcons.clear ();
  let pooled = (Driver.Batch.run ~domains:4 jobs).Driver.Batch.results in
  let sequential = List.map Driver.Job.run jobs in
  Alcotest.(check string) "fuzz programs: 4-domain run byte-identical"
    (doc jobs sequential) (doc jobs pooled)

(* ---- per-job timeouts on the pool ----------------------------------------- *)

(* A loop of [trips] additions to [s], about 2.5 s per 100 million trips
   on a 2-vCPU VM. *)
let loop_source trips =
  Printf.sprintf
    {|program long;
param N = %d;
input a;
output s;
begin
  s = 0;
  for i = 0 to N - 1 do
    s = s + a;
  end;
end|}
    trips

(* 200 million trips: far more simulation than any timeout below allows. *)
let long_loop = Dfl.Lower.source (loop_source 200_000_000)

let test_pool_timeout_isolates () =
  let jobs = table1_jobs () in
  (* The long job goes first, so on one domain every Table-1 job queues
     behind it: a job's deadline counts from its own start. *)
  let jobs =
    List.map
      (fun (j : Driver.Job.t) ->
        { j with Driver.Job.id = j.Driver.Job.id + 1 })
      jobs
  in
  let long =
    Driver.Job.make ~id:0 ~target:"tic25" ~inputs:[ ("a", [| 1 |]) ]
      ~kind:Driver.Job.Simulate long_loop
  in
  let json (r : Driver.Job.result) =
    Driver.Json.to_string (Driver.Job.result_to_json ~deterministic:true r)
  in
  let reference = List.map (fun j -> json (Driver.Job.run j)) jobs in
  List.iter
    (fun domains ->
      let report = Driver.Batch.run ~domains ~timeout:1.0 (long :: jobs) in
      match report.Driver.Batch.results with
      | first :: rest ->
        (match first.Driver.Job.status with
        | Driver.Job.Timed_out s ->
          Alcotest.(check (float 0.0)) "reports its timeout" 1.0 s
        | _ ->
          Alcotest.failf "%d domains: the long job should time out" domains);
        Alcotest.(check (list string))
          (Printf.sprintf "%d domains: every other job as without it" domains)
          reference (List.map json rest)
      | [] -> Alcotest.fail "no results")
    [ 1; 4 ]

(* One statement of 4,000 terms, [y = a + b + a + ...]: its rewrites
   rebuild a spine thousands of nodes deep at every position, which ran
   18 s past a 0.2 s deadline before the variant search and the passes
   polled it. *)
let long_sum terms =
  Dfl.Lower.source
    (Printf.sprintf "program longsum;\ninput a, b;\noutput y;\nbegin\n  y = %s;\nend"
       (String.concat " + "
          (List.init terms (fun i -> if i mod 2 = 0 then "a" else "b"))))

let test_deadline_bounds_long_statement () =
  let kernels =
    List.filter
      (fun (j : Driver.Job.t) -> j.Driver.Job.target = "tic25")
      (table1_jobs ())
  in
  let listings () =
    List.map
      (fun j ->
        match (Driver.Job.run j).Driver.Job.status with
        | Driver.Job.Done s -> s.Driver.Job.asm
        | _ -> Alcotest.failf "%s should compile" j.Driver.Job.label)
      kernels
  in
  let before = listings () in
  let long =
    Driver.Job.make ~id:0 ~target:"tic25"
      ~inputs:[ ("a", [| 1 |]); ("b", [| 2 |]) ]
      ~kind:Driver.Job.Simulate (long_sum 4_000)
  in
  let t0 = Unix.gettimeofday () in
  (match (Driver.Job.run ~timeout:0.2 long).Driver.Job.status with
  | Driver.Job.Timed_out _ -> ()
  | _ -> Alcotest.fail "the 4,000-term statement should time out");
  let elapsed = Unix.gettimeofday () -. t0 in
  if elapsed > 1.0 then
    Alcotest.failf "timed out after %.2f s of wall time, not within 1 s"
      elapsed;
  Alcotest.(check (list string)) "Table-1 listings as before the timeout"
    before (listings ())

let test_expired_deadline_leaves_pool_clean () =
  let jobs = table1_jobs () in
  let cache = Driver.Cache.create () in
  let pool = Driver.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Driver.Pool.shutdown pool)
    (fun () ->
      (* The smallest timeout puts each deadline at its job's start, so
         every job has expired before it runs. *)
      List.iter
        (fun (r : Driver.Job.result) ->
          match r.Driver.Job.status with
          | Driver.Job.Timed_out _ -> ()
          | _ -> Alcotest.failf "%s should time out" r.Driver.Job.label)
        (Driver.Pool.run_jobs pool ~cache ~timeout:Float.min_float jobs);
      Alcotest.(check int) "no cache entry stored" 0
        (Driver.Cache.counters cache).Driver.Cache.stores;
      let reused = Driver.Pool.run_jobs pool ~cache jobs in
      let fresh =
        let pool = Driver.Pool.create ~domains:2 () in
        Fun.protect
          ~finally:(fun () -> Driver.Pool.shutdown pool)
          (fun () -> Driver.Pool.run_jobs pool jobs)
      in
      Alcotest.(check string) "same pool afterwards = fresh pool"
        (doc jobs fresh) (doc jobs reused))

let test_timeout_must_be_positive () =
  List.iter
    (fun t ->
      match Driver.Batch.run ~domains:1 ~timeout:t [] with
      | _ -> Alcotest.failf "timeout %g should be refused" t
      | exception Invalid_argument _ -> ())
    [ 0.0; -1.0; Float.nan; Float.infinity; Float.neg_infinity ];
  (* The CLI turns the refusal into exit 1 and a message naming the flag. *)
  let jobs = temp_file ".json" {|[{"kernel": "fir"}]|} in
  List.iter
    (fun t ->
      let code, msg =
        run_cli (Printf.sprintf "batch %s --no-cache --timeout=%s" jobs t)
      in
      Alcotest.(check int) ("--timeout=" ^ t ^ " exits 1") 1 code;
      Alcotest.(check bool) (msg ^ " names --timeout") true
        (contains ~sub:"--timeout" msg))
    [ "0"; "-1"; "nan" ];
  Sys.remove jobs

let test_domains_must_start () =
  List.iter
    (fun domains ->
      match Driver.Pool.create ~domains () with
      | pool ->
        Driver.Pool.shutdown pool;
        Alcotest.failf "a pool of %d domains should be refused" domains
      | exception Invalid_argument _ -> ())
    [ 0; -3 ];
  let jobs = temp_file ".json" {|[{"kernel": "fir"}]|} in
  List.iter
    (fun (command, width, expected) ->
      let code, msg =
        run_cli (Printf.sprintf "%s --domains=%s" command width)
      in
      Alcotest.(check int) (command ^ " --domains=" ^ width ^ " exits 1") 1
        code;
      Alcotest.(check bool) (msg ^ " says why") true
        (contains ~sub:expected msg))
    [
      ("batch " ^ jobs ^ " --no-cache", "0", "--domains");
      ("batch " ^ jobs ^ " --no-cache", "-3", "--domains");
      ("serve --no-cache < /dev/null", "0", "--domains");
      ("dse --samples 1 --kernels fir --no-cache -o /dev/null", "-3",
       "--domains");
      (* Past the runtime's limit on live domains: the pool joins the
         workers it started, and the CLI says why. *)
      ("batch " ^ jobs ^ " --no-cache", "200", "could not start");
    ];
  Sys.remove jobs

(* ---- the submitting domain computes too ----------------------------------- *)

let test_caller_runs_batch () =
  let jobs = table1_jobs () in
  let reference = doc jobs (List.map Driver.Job.run jobs) in
  let pool = Driver.Pool.create ~domains:1 () in
  (* Hold the pool's only worker until the gate opens. *)
  let gate = Mutex.create () in
  let blocked = Atomic.make false in
  Mutex.lock gate;
  Driver.Pool.submit pool (fun () ->
      Atomic.set blocked true;
      Mutex.lock gate;
      Mutex.unlock gate);
  while not (Atomic.get blocked) do
    Domain.cpu_relax ()
  done;
  let result = Atomic.make None in
  let submitter =
    Thread.create
      (fun () -> Atomic.set result (Some (Driver.Pool.run_jobs pool jobs)))
      ()
  in
  (* Watchdog: a submitter that waits for the worker gets 30 s, then the
     gate opens so the test fails instead of hanging. *)
  let give_up = Unix.gettimeofday () +. 30.0 in
  while Atomic.get result = None && Unix.gettimeofday () < give_up do
    Thread.delay 0.01
  done;
  let before_release = Atomic.get result in
  Mutex.unlock gate;
  Thread.join submitter;
  Driver.Pool.shutdown pool;
  match before_release with
  | None -> Alcotest.fail "run_jobs waited for the blocked worker"
  | Some results ->
    Alcotest.(check string) "the caller ran the batch alone" reference
      (doc jobs results)

let test_concurrent_submitters () =
  let jobs = table1_jobs () in
  let reference = doc jobs (List.map Driver.Job.run jobs) in
  let pool = Driver.Pool.create ~domains:2 () in
  Fun.protect
    ~finally:(fun () -> Driver.Pool.shutdown pool)
    (fun () ->
      let batch () = doc jobs (Driver.Pool.run_jobs pool jobs) in
      (* Four systhreads share the main domain's seat; the extra domain
         has a seat of its own. *)
      let threads =
        List.init 4 (fun _ ->
            let out = ref "" in
            (Thread.create (fun () -> out := batch ()) (), out))
      in
      let other = Domain.spawn batch in
      let docs =
        List.map
          (fun (thread, out) ->
            Thread.join thread;
            !out)
          threads
        @ [ Domain.join other ]
      in
      List.iteri
        (fun i d ->
          Alcotest.(check string)
            (Printf.sprintf "submitter %d equals the sequential run" i)
            reference d)
        docs)

(* The seat keeps a job's deadline to itself: a job without a timeout
   must never see the deadline of a job that another systhread of its
   domain started. Each submitter runs a one-job batch, which a seated
   caller computes alone. *)
let test_one_job_per_domain () =
  let loop ~id trips =
    Driver.Job.make ~id ~target:"tic25" ~inputs:[ ("a", [| 1 |]) ]
      ~kind:Driver.Job.Simulate
      (Dfl.Lower.source (loop_source trips))
  in
  let json (r : Driver.Job.result) =
    Driver.Json.to_string (Driver.Job.result_to_json ~deterministic:true r)
  in
  let short = loop ~id:0 4_000_000 in
  let reference = json (Driver.Job.run short) in
  let pool = Driver.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Driver.Pool.shutdown pool)
    (fun () ->
      (* Without the seat, whichever thread runs when the 0.05 s deadline
         passes fails its job: a lone trial would miss a missing seat one
         time in four. *)
      for _ = 1 to 2 do
        let timed = ref [] in
        let racer =
          Thread.create
            (fun () ->
              timed :=
                Driver.Pool.run_jobs pool ~timeout:0.05
                  [ loop ~id:0 200_000_000 ])
            ()
        in
        let outs = List.init 3 (fun _ -> ref []) in
        let threads =
          List.map
            (fun out ->
              Thread.create (fun () -> out := Driver.Pool.run_jobs pool [ short ])
                ())
            outs
        in
        List.iter Thread.join (racer :: threads);
        (match !timed with
        | [ { Driver.Job.status = Driver.Job.Timed_out _; _ } ] -> ()
        | _ -> Alcotest.fail "the 0.05 s job should time out");
        List.iter
          (fun out ->
            Alcotest.(check (list string)) "a job without a timeout completes"
              [ reference ] (List.map json !out))
          outs
      done)

(* ---- serve --socket ------------------------------------------------------- *)

type connection = {
  fd : Unix.file_descr;
  ic : in_channel;
  oc : out_channel;
}

(* Retries until the daemon listens. *)
let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () ->
      { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }
    | exception Unix.Unix_error _ when tries > 0 ->
      Unix.close fd;
      Thread.delay 0.02;
      go (tries - 1)
  in
  go 500

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let replied c =
  match Unix.select [ c.fd ] [] [] 0.0 with
  | [], _, _ -> false
  | _ -> true

let test_serve_socket () =
  let objects = table1_objects () in
  (* Two requests, each half of Table 1, with the reply Batch.run's
     results give for the same jobs. *)
  let half keep =
    let objects = List.filteri (fun i _ -> keep i) objects in
    let jobs = jobs_of objects in
    ( Driver.Json.to_string
        (Driver.Json.Obj
           [
             ("jobs", Driver.Json.List objects);
             ("deterministic", Driver.Json.Bool true);
           ]),
      doc jobs (Driver.Batch.run jobs).Driver.Batch.results )
  in
  let requests = [ half (fun i -> i mod 2 = 0); half (fun i -> i mod 2 = 1) ] in
  let long = temp_file ".dfl" (loop_source 100_000_000) in
  let path = Filename.temp_file "record" ".sock" in
  let config =
    {
      Driver.Serve.domains = 2;
      deterministic = false;
      cache = Some (Driver.Cache.create ());
      matcher = None;
    }
  in
  let daemon = Domain.spawn (fun () -> Driver.Serve.run_socket config ~path) in
  let clients = List.map (fun _ -> connect path) requests in
  List.iter2 (fun c (line, _) -> send c line) clients requests;
  List.iter2
    (fun c (_, expected) ->
      Alcotest.(check string) "reply equals Batch.run" expected
        (input_line c.ic))
    clients requests;
  List.iter (fun c -> close_in c.ic) clients;
  let slow = connect path in
  send slow
    (Printf.sprintf
       {|[{"file": %S, "target": "tic25", "kind": "simulate", "inputs": {"a": [1]}}]|}
       long);
  Thread.delay 0.2;
  let control = connect path in
  send control {|{"op": "ping"}|};
  Alcotest.(check string) "ping answered"
    {|{"protocol":"record-serve-1","status":"ok"}|} (input_line control.ic);
  Alcotest.(check bool) "before the long batch replies" false (replied slow);
  Alcotest.(check bool) "the long batch completes" true
    (contains ~sub:{|"status":"done"|} (input_line slow.ic));
  close_in slow.ic;
  send control {|{"op": "shutdown"}|};
  ignore (input_line control.ic);
  close_in control.ic;
  Domain.join daemon;
  Sys.remove long;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

let test_pool_shared_cache () =
  (* Jobs repeated within one pooled run hit the shared memory tier. *)
  let jobs = table1_jobs () in
  let cache = Driver.Cache.create () in
  let some = List.filteri (fun i _ -> i < 8) jobs in
  ignore (Driver.Batch.run ~domains:2 ~cache some);
  let report = Driver.Batch.run ~domains:2 ~cache some in
  Alcotest.(check int) "second pooled run all cache hits"
    (Driver.Batch.completed report)
    (Driver.Batch.hits report);
  let c = Driver.Cache.counters cache in
  Alcotest.(check bool) "memory hits recorded" true
    (c.Driver.Cache.memory_hits >= List.length some)

(* ---- protocol hardening ---------------------------------------------------- *)

let test_duplicate_keys_rejected () =
  List.iter
    (fun (label, text) ->
      match Driver.Json.of_string text with
      | Ok _ -> Alcotest.failf "%s should be rejected" label
      | Error msg ->
        Alcotest.(check bool) (label ^ " names the duplicate") true
          (contains ~sub:"duplicate object key" msg))
    [
      ("top-level duplicate", {|{"a": 1, "a": 2}|});
      ("nested duplicate", {|{"jobs": [{"kernel": "fir", "kernel": "fir"}]}|});
    ];
  (* A selection mode that no longer exists is an unknown spelling, and
     the error names the offending job. *)
  (match
     Result.bind
       (Driver.Json.of_string
          {|[{"kernel": "fir", "target": "tic25"},
             {"kernel": "fir", "target": "tic25", "selection": "exhaustive"}]|})
       Driver.Protocol.jobs_of_json
   with
  | Ok _ -> Alcotest.fail "selection \"exhaustive\" should be rejected"
  | Error msg ->
    Alcotest.(check string) "removed mode rejected"
      {|job 1: unknown selection "exhaustive"|} msg);
  (* A member of the wrong type is an error naming the job and the
     member, not a silent fallback to the member's default. *)
  List.iter
    (fun (text, expected) ->
      match
        Result.bind (Driver.Json.of_string text) Driver.Protocol.jobs_of_json
      with
      | Ok _ -> Alcotest.failf "%s should be rejected" text
      | Error msg -> Alcotest.(check string) text expected msg)
    [
      ({|[{"kernel": 7}]|}, {|job 0: "kernel" must be a string|});
      ({|[{"file": ["t.dfl"]}]|}, {|job 0: "file" must be a string|});
      ( {|[{"kernel": "fir", "target": 7, "deadline": "200"}]|},
        {|job 0: "target" must be a string|} );
      ( {|[{"kernel": "fir", "options": true}]|},
        {|job 0: "options" must be a string|} );
      ({|[{"kernel": "fir", "label": 3}]|}, {|job 0: "label" must be a string|});
      ({|[{"kernel": "fir", "kind": null}]|}, {|job 0: "kind" must be a string|});
      ( {|[{"kernel": "fir", "selection": 1}]|},
        {|job 0: "selection" must be a string|} );
      ( {|[{"kernel": "fir"}, {"kernel": "fir", "deadline": "200"}]|},
        {|job 1: "deadline" must be an integer|} );
      ( {|[{"kernel": "fir", "deadline": 2.5}]|},
        {|job 0: "deadline" must be an integer|} );
    ];
  (* Same name at different depths is not a duplicate. *)
  match Driver.Json.of_string {|{"a": {"a": 1}}|} with
  | Ok _ -> ()
  | Error msg -> Alcotest.fail msg

(* fir at N = 4: x0 is one value, c and x four each, laid out in that
   order. *)
let fir4 =
  {|program fir;
param N = 4;
input x0;
input c[N], x[N];
output y;
var acc;
begin
  for i = 0 to N - 2 do
    x[i] = x[i + 1];
  end;
  x[N - 1] = x0;
  acc = 0;
  for j = 0 to N - 1 do
    acc = acc + c[j] * x[j];
  end;
  y = acc;
end
|}

let test_inputs_checked () =
  (* Every input names a declared variable and carries exactly its size,
     the rule the reference interpreter applies. *)
  List.iter
    (fun (inputs, expected) ->
      let text =
        Printf.sprintf {|[{"kernel": "fir", "inputs": %s}]|} inputs
      in
      match
        Result.bind (Driver.Json.of_string text) Driver.Protocol.jobs_of_json
      with
      | Ok _ when expected = "" -> ()
      | Ok _ -> Alcotest.failf "%s should be rejected" inputs
      | Error msg -> Alcotest.(check string) inputs expected msg)
    [
      ( {|{"x0": [1, 5, 5, 5, 5]}|},
        {|job 0: input "x0" has 5 values, fir declares 1|} );
      ( {|{"nosuch": [1, 2]}|},
        {|job 0: input "nosuch": fir declares no such variable|} );
      ( {|{"x": [1, 2]}|}, {|job 0: input "x" has 2 values, fir declares 16|} );
      ({|{"x0": [3]}|}, "");
    ];
  (* [record compile --input] applies the same check, with or without
     --check, before anything runs. *)
  let src = temp_file ".dfl" fir4 in
  List.iter
    (fun check ->
      let code, msg =
        run_cli
          (Printf.sprintf
             "compile %s --no-cache -i x0=1,5,5,5,5 -i x=1,1,1,1%s" src check)
      in
      Alcotest.(check int) ("compile" ^ check ^ " exits 1") 1 code;
      Alcotest.(check string) ("compile" ^ check ^ " names the input")
        "record: input \"x0\" has 5 values, fir declares 1\n" msg)
    [ ""; " --check" ];
  Sys.remove src

(* compile, ise --compile and timing share one DFL loader: a source that
   cannot be read (a directory) or parsed exits 1 naming the file, never
   with an uncaught exception. *)
let test_source_errors () =
  let dir = Filename.get_temp_dir_name () in
  let bad = temp_file ".dfl" "program p; begin u = ; end" in
  List.iter
    (fun command ->
      List.iter
        (fun file ->
          let code, msg =
            run_cli (Printf.sprintf "%s %s" command (Filename.quote file))
          in
          Alcotest.(check int) (command ^ " " ^ file ^ " exits 1") 1 code;
          Alcotest.(check bool)
            (msg ^ " names " ^ file)
            true
            (String.starts_with ~prefix:("record: " ^ file ^ ": ") msg))
        [ dir; bad ])
    [ "compile --no-cache"; "ise --compile"; "timing" ];
  Sys.remove bad

(* A loop on a generated machine that declares no loop control is an
   error the CLI reports, not an uncaught exception: from a netlist
   ([ise --compile]) and from a textual description without a counter
   ([compile --target-file]). *)
let test_loop_without_control () =
  let src = temp_file ".dfl" fir4 in
  let mdl =
    temp_file ".mdl"
      "machine nolo\nregister acc\nrule ld acc <- mem\nrule st mem <- acc\n\
       rule add acc <- add(acc, mem)\n"
  in
  List.iter
    (fun (args, expected) ->
      let code, msg = run_cli args in
      Alcotest.(check int) (args ^ " exits 1") 1 code;
      Alcotest.(check string) args expected msg)
    [
      ( "ise --netlist acc16 --compile " ^ src,
        "record: acc16: no loop control declared\n" );
      ( Printf.sprintf "compile --no-cache --target-file %s %s" mdl src,
        "record: nolo: no loop control declared\n" );
    ];
  Sys.remove src;
  Sys.remove mdl

(* Runs [f] on a fresh FIFO: its result and the seconds it took.  Were
   [f] to block opening the FIFO, a watchdog opens it for writing after
   5 s to release it, and the elapsed time fails the test instead of
   hanging the suite. *)
let on_fifo f =
  let path = Filename.temp_file "record" ".fifo" in
  Sys.remove path;
  Unix.mkfifo path 0o600;
  let finished = Atomic.make false in
  let watchdog =
    Thread.create
      (fun () ->
        let t0 = Unix.gettimeofday () in
        while (not (Atomic.get finished)) && Unix.gettimeofday () -. t0 < 5.0 do
          Thread.delay 0.01
        done;
        if not (Atomic.get finished) then
          try
            Unix.close
              (Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0)
          with Unix.Unix_error _ -> ())
      ()
  in
  let t0 = Unix.gettimeofday () in
  let result = f path in
  let elapsed = Unix.gettimeofday () -. t0 in
  Atomic.set finished true;
  Thread.join watchdog;
  Sys.remove path;
  (path, result, elapsed)

(* A "file" job naming a FIFO is refused while decoding, without waiting
   for a writer. *)
let test_fifo_refused () =
  let path, decoded_jobs, elapsed =
    on_fifo (fun path ->
        Driver.Protocol.jobs_of_json
          Driver.Json.(List [ Obj [ ("file", String path) ] ]))
  in
  (match decoded_jobs with
  | Ok _ -> Alcotest.fail "a FIFO was decoded as a source file"
  | Error msg ->
    Alcotest.(check string)
      "refused"
      ("job 0: " ^ path ^ ": not a regular file")
      msg);
  Alcotest.(check bool)
    (Printf.sprintf "refused at once (%.3f s)" elapsed)
    true (elapsed < 1.0)

(* The CLI reads its files as a job's file is read: a FIFO named as a DFL
   source, a listing or a jobs file is refused at once. *)
let test_cli_fifo_refused () =
  List.iter
    (fun (command, flags) ->
      let path, (code, msg), elapsed =
        on_fifo (fun path ->
            run_cli
              (Printf.sprintf "%s %s %s" command (Filename.quote path) flags))
      in
      Alcotest.(check int) (command ^ " exits 1") 1 code;
      Alcotest.(check string)
        (command ^ " refuses")
        ("record: " ^ path ^ ": not a regular file\n")
        msg;
      Alcotest.(check bool)
        (Printf.sprintf "%s refuses at once (%.3f s)" command elapsed)
        true (elapsed < 1.0))
    [ ("compile", "--no-cache"); ("asm", ""); ("batch", "--no-cache") ]

(* [record asm] checks what it is asked to simulate and reports a failed
   run as a simulate job does, exiting 1 with a message, never with an
   uncaught exception. *)
let test_asm_errors () =
  let listing = temp_file ".s" "LAC a\nSACL z\n" in
  let walks = temp_file ".s" "LARK ar0, #40\nLAC *ar0\nSACL z\n" in
  List.iter
    (fun (file, args, expected) ->
      let command = Printf.sprintf "asm %s %s" file args in
      let code, msg = run_cli command in
      Alcotest.(check int) (command ^ " exits 1") 1 code;
      Alcotest.(check string) command ("record: " ^ expected ^ "\n") msg)
    [
      ( listing,
        "--var a --var z --input a=5,6",
        Printf.sprintf "input \"a\" has 2 values, %s declares 1" listing );
      ( listing,
        "--var a --var z --input b=5",
        Printf.sprintf "input \"b\": %s declares no such variable" listing );
      ( listing,
        "--input z=1",
        Printf.sprintf "input \"z\": %s declares no such variable" listing );
      ( listing,
        "--var z --input z=1",
        listing ^ ": LAC names a, which no --var declares" );
      (walks, "--var z", "exec error: index out of bounds");
      ( listing,
        "--var a --var z --var a:2",
        "--var: duplicate declaration of a" );
    ];
  Sys.remove listing;
  Sys.remove walks

(* A "file" job's source is read whole with one buffer of the file's
   size: an empty file and one over 64 KB (a long DFL comment) decode as
   [Dfl.Lower.source] lowers their text, errors included. *)
let test_file_read_whole () =
  let lowered path text =
    match Dfl.Lower.source text with
    | prog -> Ok (Ir.Prog.digest prog)
    | exception (Dfl.Lexer.Error msg | Dfl.Parser.Error msg | Dfl.Lower.Error msg)
      ->
      Error (Printf.sprintf "job 0: %s: %s" path msg)
  in
  let decoded path =
    match
      Driver.Protocol.jobs_of_json
        Driver.Json.(List [ Obj [ ("file", String path) ] ])
    with
    | Ok [ job ] -> Ok (Ir.Prog.digest job.Driver.Job.prog)
    | Ok jobs -> Alcotest.failf "%d jobs decoded" (List.length jobs)
    | Error msg -> Error msg
  in
  let long = "(* " ^ String.make 70_000 'c' ^ " *)\n" ^ fir4 in
  List.iter
    (fun (label, text) ->
      let path = temp_file ".dfl" text in
      let want = lowered path text and got = decoded path in
      Sys.remove path;
      Alcotest.(check (result string string)) label want got)
    [ ("empty", ""); ("over 64 KB", long) ];
  Alcotest.(check bool) "the long file lowers" true
    (Result.is_ok (lowered "" long))

(* The dp-vs-table differential over the Table-1 job matrix: every job run
   as decoded (the automaton) and again with the DP reference engine gives
   the same deterministic result — words, cycles, outputs, listing digest
   and pipeline stats — except the two fields that differ by design: the
   cache key (the options digest names the engine) and [variants_tried]
   (state pruning ranks fewer variants). *)
let test_engines_agree_on_jobs () =
  let jobs = table1_jobs () in
  let table_variants = ref 0 and dp_variants = ref 0 in
  let run variants (j : Driver.Job.t) =
    let r = Driver.Job.run j in
    let r =
      match r.Driver.Job.status with
      | Driver.Job.Done s ->
        let tried = s.Driver.Job.stats.Record.Pipeline.variants_tried in
        variants := !variants + tried;
        let stats =
          { s.Driver.Job.stats with Record.Pipeline.variants_tried = 0 }
        in
        { r with status = Driver.Job.Done { s with key = ""; stats } }
      | Driver.Job.Unsupported _ | Driver.Job.Failed _
      | Driver.Job.Timed_out _ | Driver.Job.Crashed _ ->
        r
    in
    Driver.Json.to_string (Driver.Job.result_to_json ~deterministic:true r)
  in
  Alcotest.(check int) "the 40 Table-1 jobs" 40 (List.length jobs);
  List.iter
    (fun (j : Driver.Job.t) ->
      let dp =
        {
          j with
          options = Record.Options.with_matcher Burg.Matcher.Dp j.options;
        }
      in
      Alcotest.(check string) j.label (run table_variants j)
        (run dp_variants dp))
    jobs;
  Alcotest.(check bool)
    (Printf.sprintf "dp ranks more variants than table (%d > %d)"
       !dp_variants !table_variants)
    true
    (!dp_variants > !table_variants)

let test_eviction_counter () =
  let cache = Driver.Cache.create ~memory_slots:2 () in
  let machine = Target.Tic25.machine in
  let compile k =
    ignore
      (Driver.Service.compile ~cache machine
         (Dspstone.Kernels.prog (Dspstone.Kernels.find k)))
  in
  compile "fir";
  compile "dot_product";
  Alcotest.(check int) "no evictions while under capacity" 0
    (Driver.Cache.counters cache).Driver.Cache.evictions;
  compile "real_update";
  Alcotest.(check int) "overflow displaces the LRU entry" 1
    (Driver.Cache.counters cache).Driver.Cache.evictions

let suites =
  [
    ( "domains",
      [
        Alcotest.test_case "concurrent interning agrees on ids" `Quick
          test_concurrent_interning_agrees;
        Alcotest.test_case "id tables across chunk edges" `Quick
          test_idtab_chunk_edges;
        Alcotest.test_case "concurrent matcher labelling agrees" `Quick
          test_concurrent_matcher_labelling;
        Alcotest.test_case "4-domain pool byte-identical to sequential" `Quick
          test_pool_matches_sequential;
        Alcotest.test_case "timeout isolates the long job" `Quick
          test_pool_timeout_isolates;
        Alcotest.test_case "deadline bounds a 4,000-term statement" `Quick
          test_deadline_bounds_long_statement;
        Alcotest.test_case "expired deadline leaves pool clean" `Quick
          test_expired_deadline_leaves_pool_clean;
        Alcotest.test_case "timeout must be positive and finite" `Quick
          test_timeout_must_be_positive;
        Alcotest.test_case "pool width must start" `Quick
          test_domains_must_start;
        Alcotest.test_case "pooled runs share one cache" `Quick
          test_pool_shared_cache;
        Alcotest.test_case "caller runs its batch when no worker is free"
          `Quick test_caller_runs_batch;
        Alcotest.test_case "concurrent submitters agree" `Quick
          test_concurrent_submitters;
        Alcotest.test_case "one job at a time per domain" `Quick
          test_one_job_per_domain;
      ] );
    ( "domains.engines",
      [
        Alcotest.test_case "Table-1 jobs: dp and table agree" `Quick
          test_engines_agree_on_jobs;
      ] );
    ( "domains.serve",
      [
        Alcotest.test_case "socket daemon end to end" `Quick test_serve_socket;
      ] );
    ( "domains.protocol",
      [
        Alcotest.test_case "duplicate object keys rejected" `Quick
          test_duplicate_keys_rejected;
        Alcotest.test_case "eviction counter" `Quick test_eviction_counter;
        Alcotest.test_case "inputs checked against declarations" `Quick
          test_inputs_checked;
        Alcotest.test_case "unreadable or malformed source exits 1" `Quick
          test_source_errors;
        Alcotest.test_case "a FIFO file job is refused at once" `Quick
          test_fifo_refused;
        Alcotest.test_case "a loop without loop control exits 1" `Quick
          test_loop_without_control;
        Alcotest.test_case "empty and 64 KB+ files read whole" `Quick
          test_file_read_whole;
        Alcotest.test_case "the CLI refuses a FIFO at once" `Quick
          test_cli_fifo_refused;
        Alcotest.test_case "asm refuses what it cannot run" `Quick
          test_asm_errors;
      ] );
  ]
