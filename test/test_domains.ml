(* Multicore safety of the shared compiler state: N domains interning the
   same subtrees must agree on canonical ids, and a domain-pool batch run
   must be byte-identical to the sequential scheduler.  These tests drive
   the structures the serve daemon shares across worker domains — the
   striped intern table, the matcher DP tables, the cache memory tier. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

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

let test_pool_matches_sequential () =
  match table1_jobs () with
  | None -> ()
  | Some jobs ->
    let doc results =
      Driver.Json.to_string
        (Driver.Job.results_to_json ~deterministic:true ~jobs results)
    in
    let sequential = (Driver.Batch.run ~jobs:1 jobs).Driver.Batch.results in
    let pooled = (Driver.Batch.run ~domains:4 jobs).Driver.Batch.results in
    Alcotest.(check string) "4-domain run byte-identical to sequential"
      (doc sequential) (doc pooled)

let test_pool_timeout_rejected () =
  Alcotest.check_raises "timeout + domains is refused"
    (Invalid_argument "Batch.run: ?timeout is not supported with ?domains")
    (fun () -> ignore (Driver.Batch.run ~domains:2 ~timeout:1.0 []))

let test_pool_shared_cache () =
  (* Jobs repeated within one pooled run hit the shared memory tier —
     the amortization fork workers cannot provide. *)
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
          (let sub = "duplicate object key" in
           let n = String.length msg and m = String.length sub in
           let rec find i =
             i + m <= n && (String.sub msg i m = sub || find (i + 1))
           in
           find 0))
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
        Alcotest.test_case "timeout rejected with domains" `Quick
          test_pool_timeout_rejected;
        Alcotest.test_case "pooled runs share one cache" `Quick
          test_pool_shared_cache;
      ] );
    ( "domains.protocol",
      [
        Alcotest.test_case "duplicate object keys rejected" `Quick
          test_duplicate_keys_rejected;
        Alcotest.test_case "eviction counter" `Quick test_eviction_counter;
      ] );
  ]
