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

(* The CLI cases run the executable built next to the tests, and are
   skipped when the suite runs from anywhere else. *)
let cli = "../bin/record_cli.exe"

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
    Sys.command (Printf.sprintf "%s %s > /dev/null 2> %s" cli args err)
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
    (List.map (fun i -> (Ir.Hashcons.intern (tree i)).Ir.Hashcons.id) indices)

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

let table1_jobs () =
  let path = "../bench/jobs_table1.json" in
  if not (Sys.file_exists path) then None
  else
    match
      Result.bind (Driver.Json.of_string (read_file path))
        Driver.Protocol.jobs_of_json
    with
    | Ok jobs -> Some jobs
    | Error msg -> Alcotest.fail msg

let doc jobs results =
  Driver.Json.to_string
    (Driver.Job.results_to_json ~deterministic:true ~jobs results)

let test_pool_matches_sequential () =
  match table1_jobs () with
  | None -> ()
  | Some jobs ->
    let sequential = List.map Driver.Job.run jobs in
    let pooled = (Driver.Batch.run ~domains:4 jobs).Driver.Batch.results in
    Alcotest.(check string) "4-domain run byte-identical to sequential"
      (doc jobs sequential) (doc jobs pooled)

(* ---- per-job timeouts on the pool ----------------------------------------- *)

(* 200 million trips: far more simulation than any timeout below allows. *)
let long_loop =
  Dfl.Lower.source
    {|program long;
param N = 200000000;
input a;
output s;
begin
  s = 0;
  for i = 0 to N - 1 do
    s = s + a;
  end;
end|}

let test_pool_timeout_isolates () =
  match table1_jobs () with
  | None -> ()
  | Some jobs ->
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

let test_expired_deadline_leaves_pool_clean () =
  match table1_jobs () with
  | None -> ()
  | Some jobs ->
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
        let fresh = (Driver.Batch.run ~domains:2 jobs).Driver.Batch.results in
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
  if Sys.file_exists cli then begin
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
  end

let test_pool_shared_cache () =
  (* Jobs repeated within one pooled run hit the shared memory tier. *)
  match table1_jobs () with
  | None -> ()
  | Some jobs ->
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
      ( {|[{"kernel": "fir", "matcher": {}}]|},
        {|job 0: "matcher" must be a string|} );
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
  if Sys.file_exists cli then begin
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
  end

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
        Alcotest.test_case "concurrent matcher labelling agrees" `Quick
          test_concurrent_matcher_labelling;
        Alcotest.test_case "4-domain pool byte-identical to sequential" `Quick
          test_pool_matches_sequential;
        Alcotest.test_case "timeout isolates the long job" `Quick
          test_pool_timeout_isolates;
        Alcotest.test_case "expired deadline leaves pool clean" `Quick
          test_expired_deadline_leaves_pool_clean;
        Alcotest.test_case "timeout must be positive and finite" `Quick
          test_timeout_must_be_positive;
        Alcotest.test_case "pooled runs share one cache" `Quick
          test_pool_shared_cache;
      ] );
    ( "domains.protocol",
      [
        Alcotest.test_case "duplicate object keys rejected" `Quick
          test_duplicate_keys_rejected;
        Alcotest.test_case "eviction counter" `Quick test_eviction_counter;
        Alcotest.test_case "inputs checked against declarations" `Quick
          test_inputs_checked;
      ] );
  ]
