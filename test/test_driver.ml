(* The lib/driver compilation-service subsystem: digests and cache keys,
   the two-tier cache (hit ≡ miss equality, invalidation, corruption and
   concurrent-writer tolerance), the batch scheduler's determinism, the
   registry, and the JSON protocol. *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let temp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "record-test-cache-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let kernels = Dspstone.Kernels.all
let targets () = Driver.Registry.machines ()

(* ---- digests ------------------------------------------------------------- *)

let test_prog_digest_stable () =
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let a = Ir.Prog.digest (Dspstone.Kernels.prog k) in
      let b = Ir.Prog.digest (Dspstone.Kernels.prog k) in
      Alcotest.(check string) (k.name ^ " digest stable") a b)
    kernels

let test_prog_digest_distinguishes () =
  let digests =
    List.map (fun k -> Ir.Prog.digest (Dspstone.Kernels.prog k)) kernels
  in
  Alcotest.(check int)
    "all kernels digest apart"
    (List.length digests)
    (List.length (List.sort_uniq String.compare digests))

let test_prog_digest_structural () =
  (* Same shape, one constant changed: must digest apart. *)
  let mk c =
    Ir.Prog.make ~name:"p"
      ~decls:[ Ir.Prog.scalar_decl ~storage:Ir.Prog.Input "x";
               Ir.Prog.scalar_decl ~storage:Ir.Prog.Output "y" ]
      [ Ir.Prog.assign (Ir.Mref.scalar "y")
          Ir.Tree.(var "x" + const c) ]
  in
  Alcotest.(check bool) "digest sees constants" false
    (Ir.Prog.digest (mk 1) = Ir.Prog.digest (mk 2))

let test_options_fingerprint () =
  let r = Record.Options.record_ and c = Record.Options.conventional in
  Alcotest.(check bool) "record vs conventional" false
    (Record.Options.digest r = Record.Options.digest c);
  Alcotest.(check bool) "folding changes the digest" false
    (Record.Options.digest r
    = Record.Options.digest (Record.Options.with_folding r));
  Alcotest.(check string) "digest deterministic"
    (Record.Options.digest r) (Record.Options.digest r);
  let s = Record.Options.to_string r in
  List.iter
    (fun field ->
      Alcotest.(check bool) (field ^ " rendered") true (contains ~sub:field s))
    [ "selection="; "algebra="; "agu="; "unroll=" ]

let test_key_invalidation () =
  let prog = Dspstone.Kernels.prog (List.hd kernels) in
  let tic25 = Target.Tic25.machine and dsp56 = Target.Dsp56.machine in
  let k ?salt machine options =
    Driver.Key.make ?salt ~machine ~options prog
  in
  let base = k tic25 Record.Options.record_ in
  Alcotest.(check string) "key deterministic" base
    (k tic25 Record.Options.record_);
  Alcotest.(check bool) "option change invalidates" false
    (base = k tic25 Record.Options.conventional);
  Alcotest.(check bool) "target change invalidates" false
    (base = k dsp56 Record.Options.record_);
  Alcotest.(check bool) "version-salt change invalidates" false
    (base = k ~salt:"next-compiler-version" tic25 Record.Options.record_)

(* Keys of three Table-1 kernels on the four bundled machines under a fixed
   salt.  How the digest texts are written (program fold, options,
   machine fingerprint) may change, the bytes may not: a change that moves
   one of these keys turns every cache entry stale, and must say so and
   bump the cache magic. *)
let test_key_pinned () =
  let machines =
    [
      Target.Tic25.machine;
      Target.Dsp56.machine;
      Target.Risc32.machine;
      Target.Asip.machine Target.Asip.default;
    ]
  in
  List.iter
    (fun (kernel, pins) ->
      let prog = Dspstone.Kernels.prog (Dspstone.Kernels.find kernel) in
      List.iter2
        (fun (m : Target.Machine.t) want ->
          Alcotest.(check string)
            (kernel ^ " on " ^ m.Target.Machine.name)
            want
            (Driver.Key.make ~salt:"fixed-salt" ~machine:m
               ~options:Record.Options.record_ prog))
        machines pins)
    [
      ( "real_update",
        [
          "9669e2e293b1071d49e82c35008307a1";
          "47dce03e0dbac6fff8a33b56d61e7586";
          "9cf0316cf6c69e63534b420e2db9850c";
          "ea8423102e2253124b982c734a0ab39f";
        ] );
      ( "fir",
        [
          "0b979b1674ba4482d2d42f6ef90c9227";
          "bbd70301c45cc1c1dfa772b1749c61db";
          "0dcec3e5e884940b8e408735affb5546";
          "467d5bdbc7bdcc1973da3c45a803a25f";
        ] );
      ( "convolution",
        [
          "5b3f6076cb1a2b68c8307d6b79205f28";
          "632ba8f0c8488a0d07c5d5b3ed6f14bb";
          "00cc141fde167fa8d419c1d27a53c37d";
          "8de3a8bc49cbb93a0266297b8485386a";
        ] );
    ]

(* ---- machine fingerprint memo ------------------------------------------- *)

(* [Key.make] memoizes a machine's fingerprint per machine value.  A value
   never seen before is rendered from scratch, so a separately built copy
   of a machine compares the memoized key with an unmemoized one. *)
let registry_asip () =
  match Driver.Registry.find_machine "asip" with
  | Ok m -> m
  | Error e -> Alcotest.fail e

let key_for machine =
  Driver.Key.make ~machine ~options:Record.Options.record_
    (Dspstone.Kernels.prog (List.hd kernels))

let test_key_memo_structural () =
  let asip = registry_asip () in
  ignore (key_for asip);
  let memoized = key_for asip in
  let copy = Target.Asip.machine Target.Asip.default in
  Alcotest.(check bool) "the copy is another value" false (copy == asip);
  Alcotest.(check string) "same structure, same key" memoized (key_for copy);
  Alcotest.(check string) "the registry's machine keeps it" memoized
    (key_for asip)

let test_key_memo_same_name () =
  let asip = registry_asip () in
  let before = key_for asip in
  let other =
    Target.Asip.machine
      { Target.Asip.default with Target.Asip.has_mac = false; imm_bits = 4 }
  in
  Fun.protect
    ~finally:(fun () -> Driver.Registry.register asip)
    (fun () ->
      Driver.Registry.register other;
      let found = registry_asip () in
      Alcotest.(check bool) "registered under the name asip" true
        (found == other);
      let k = key_for found in
      Alcotest.(check bool) "a different machine keys apart" false (k = before);
      Alcotest.(check string) "and keeps its key" k (key_for found));
  Alcotest.(check string) "the bundled asip keeps its key" before
    (key_for asip)

let test_key_memo_domains () =
  (* Three machines share the name asip, so the domains also race on
     replacing one memo slot. *)
  let machines =
    targets ()
    @ [
        Target.Asip.machine Target.Asip.default;
        Target.Asip.machine
          { Target.Asip.default with Target.Asip.has_multiplier = false };
      ]
  in
  let keys () = List.map key_for machines in
  let sequential = keys () in
  let domains =
    Array.init 4 (fun _ ->
        Domain.spawn (fun () -> List.init 20 (fun _ -> keys ())))
  in
  Array.iteri
    (fun d rounds ->
      List.iter
        (Alcotest.(check (list string))
           (Printf.sprintf "domain %d agrees with sequential calls" d)
           sequential)
        rounds)
    (Array.map Domain.join domains)

(* ---- cache --------------------------------------------------------------- *)

(* [phase_trace:false] when [b] is a genuine recompile: spans are wall-clock
   measurements, equal only when [b] was served from the cache. *)
let compiled_equal ?(phase_trace = true) name (a : Record.Pipeline.compiled)
    (b : Record.Pipeline.compiled) =
  let render c = Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm in
  Alcotest.(check string) (name ^ ": asm") (render a) (render b);
  Alcotest.(check int) (name ^ ": words")
    (Record.Pipeline.words a) (Record.Pipeline.words b);
  Alcotest.(check bool) (name ^ ": layout") true
    (a.Record.Pipeline.layout = b.Record.Pipeline.layout);
  Alcotest.(check bool) (name ^ ": pool") true
    (a.Record.Pipeline.pool = b.Record.Pipeline.pool);
  Alcotest.(check bool) (name ^ ": stats") true
    (a.Record.Pipeline.stats = b.Record.Pipeline.stats);
  if phase_trace then
    Alcotest.(check bool) (name ^ ": phase trace") true
      (a.Record.Pipeline.phase_ms = b.Record.Pipeline.phase_ms)

(* Hit ≡ miss on every kernel × target: the cached result must be
   structurally identical to the fresh compile that produced it, through
   both tiers. *)
let test_cache_hit_equals_miss () =
  let dir = temp_dir () in
  let combos_checked = ref 0 in
  List.iter
    (fun (machine : Target.Machine.t) ->
      List.iter
        (fun (k : Dspstone.Kernels.t) ->
          let prog = Dspstone.Kernels.prog k in
          let name = k.name ^ "@" ^ machine.Target.Machine.name in
          (* Fresh caches with a shared disk dir: first call misses and
             stores, second hits memory, a third through a new cache value
             hits disk. *)
          let cache = Driver.Cache.create ~dir () in
          match Driver.Service.compile ~cache machine prog with
          | exception Record.Pipeline.Error _ ->
            (* Legitimate cannot-compile (e.g. AGU limits on asip); the
               cache must stay silent about it. *)
            ()
          | miss ->
            incr combos_checked;
            Alcotest.(check bool) (name ^ ": first is a miss") true
              (miss.Driver.Service.provenance = Driver.Service.Miss);
            let hit = Driver.Service.compile ~cache machine prog in
            Alcotest.(check bool) (name ^ ": second is a memory hit") true
              (hit.Driver.Service.provenance = Driver.Service.Memory_hit);
            compiled_equal (name ^ " (memory)")
              miss.Driver.Service.compiled hit.Driver.Service.compiled;
            let fresh = Driver.Cache.create ~dir () in
            let disk = Driver.Service.compile ~cache:fresh machine prog in
            Alcotest.(check bool) (name ^ ": new process is a disk hit") true
              (disk.Driver.Service.provenance = Driver.Service.Disk_hit);
            compiled_equal (name ^ " (disk)")
              miss.Driver.Service.compiled disk.Driver.Service.compiled)
        kernels)
    (targets ());
  (* tic25 compiles everything; other targets may skip a few kernels. *)
  Alcotest.(check bool) "most combos exercised" true (!combos_checked >= 30)

let test_cache_option_isolation () =
  let dir = temp_dir () in
  let cache = Driver.Cache.create ~dir () in
  let machine = Target.Tic25.machine in
  let prog = Dspstone.Kernels.prog (Dspstone.Kernels.find "fir") in
  let a = Driver.Service.compile ~cache ~options:Record.Options.record_ machine prog in
  let b =
    Driver.Service.compile ~cache ~options:Record.Options.conventional machine prog
  in
  Alcotest.(check bool) "conventional does not hit record's entry" true
    (b.Driver.Service.provenance = Driver.Service.Miss);
  Alcotest.(check bool) "distinct keys" false
    (a.Driver.Service.key = b.Driver.Service.key)

let test_cache_corrupt_tolerance () =
  let dir = temp_dir () in
  let cache = Driver.Cache.create ~dir () in
  let machine = Target.Tic25.machine in
  let prog = Dspstone.Kernels.prog (Dspstone.Kernels.find "fir") in
  let first = Driver.Service.compile ~cache machine prog in
  let key = first.Driver.Service.key in
  let path = Filename.concat dir key in
  Alcotest.(check bool) "entry file exists" true (Sys.file_exists path);
  List.iter
    (fun (label, bytes) ->
      let oc = open_out_bin path in
      output_string oc bytes;
      close_out oc;
      (* A fresh cache value (empty memory tier) must see the damage,
         treat it as a miss, remove the bad file, and recompile. *)
      let fresh = Driver.Cache.create ~dir () in
      let again = Driver.Service.compile ~cache:fresh machine prog in
      Alcotest.(check bool) (label ^ ": corrupt entry is a miss") true
        (again.Driver.Service.provenance = Driver.Service.Miss);
      Alcotest.(check bool) (label ^ ": corrupt counter ticked") true
        ((Driver.Cache.counters fresh).Driver.Cache.corrupt >= 1);
      compiled_equal ~phase_trace:false (label ^ ": recompiled result")
        first.Driver.Service.compiled again.Driver.Service.compiled)
    [
      ("garbage", "not a cache entry at all");
      ("truncated", "RECORD-CACHE-1\n" ^ key);
      ( "bad payload digest",
        "RECORD-CACHE-1\n" ^ key ^ "\n" ^ String.make 32 '0' ^ "\nxxxx" );
      ("empty", "");
    ]

let test_cache_concurrent_writers () =
  let dir = temp_dir () in
  let machine = Target.Tic25.machine in
  let prog = Dspstone.Kernels.prog (Dspstone.Kernels.find "dot_product") in
  (* Two cache values sharing the directory race on the same key; both
     stores must succeed (atomic rename, unique temp names) and the entry
     must verify afterwards. *)
  let a = Driver.Cache.create ~dir () in
  let b = Driver.Cache.create ~dir () in
  let ra = Driver.Service.compile ~cache:a machine prog in
  let rb = Driver.Service.compile ~cache:b machine prog in
  Alcotest.(check bool) "b read a's published entry" true
    (Driver.Service.is_hit rb.Driver.Service.provenance
    || rb.Driver.Service.provenance = Driver.Service.Miss);
  let c = Driver.Cache.create ~dir () in
  let rc = Driver.Service.compile ~cache:c machine prog in
  Alcotest.(check bool) "entry readable after the race" true
    (rc.Driver.Service.provenance = Driver.Service.Disk_hit);
  compiled_equal "raced entry" ra.Driver.Service.compiled
    rc.Driver.Service.compiled

let test_cache_lru_eviction () =
  let cache = Driver.Cache.create ~memory_slots:2 () in
  let machine = Target.Tic25.machine in
  let compile k =
    Driver.Service.compile ~cache machine (Dspstone.Kernels.prog (Dspstone.Kernels.find k))
  in
  ignore (compile "fir");
  ignore (compile "dot_product");
  ignore (compile "real_update");  (* evicts fir, the least recently used *)
  let again = compile "fir" in
  Alcotest.(check bool) "evicted entry misses (memory-only cache)" true
    (again.Driver.Service.provenance = Driver.Service.Miss);
  let hot = compile "real_update" in
  Alcotest.(check bool) "recent entry still hits" true
    (hot.Driver.Service.provenance = Driver.Service.Memory_hit)

(* ---- batch --------------------------------------------------------------- *)

let table1_jobs () =
  List.concat_map
    (fun (machine : Target.Machine.t) ->
      List.map
        (fun (k : Dspstone.Kernels.t) ->
          ( machine.Target.Machine.name,
            k.name,
            Dspstone.Kernels.prog k,
            k.Dspstone.Kernels.inputs ))
        kernels)
    (targets ())
  |> List.mapi (fun id (target, kname, prog, inputs) ->
         Driver.Job.make ~id ~source:("kernel " ^ kname) ~target
           ~options_label:"record" ~inputs ~kind:Driver.Job.Simulate prog)

let deterministic_doc jobs results =
  Driver.Json.to_string ~indent:true
    (Driver.Job.results_to_json ~deterministic:true ~jobs results)

let test_batch_determinism () =
  let jobs = table1_jobs () in
  (* Same job list, one after another in this domain vs pools of several
     widths, cold vs warm cache: all must produce identical ordered
     results. *)
  let dir = temp_dir () in
  let run n cache =
    (Driver.Batch.run ~domains:n ?cache jobs).Driver.Batch.results
  in
  let reference = deterministic_doc jobs (List.map Driver.Job.run jobs) in
  List.iter
    (fun n ->
      let got = deterministic_doc jobs (run n None) in
      Alcotest.(check string)
        (Printf.sprintf "domains=%d matches sequential" n)
        reference got)
    [ 1; 2; 4; 7 ];
  let cold = Driver.Cache.create ~dir () in
  let warm = Driver.Cache.create ~dir () in
  let cold_results = run 4 (Some cold) in
  let warm_report = Driver.Batch.run ~domains:4 ~cache:warm jobs in
  Alcotest.(check string) "cold cached run matches" reference
    (deterministic_doc jobs cold_results);
  Alcotest.(check string) "warm cached run matches" reference
    (deterministic_doc jobs warm_report.Driver.Batch.results);
  (* The acceptance property: a warm rerun performs zero recompilations. *)
  Alcotest.(check int) "warm run all hits"
    (Driver.Batch.completed warm_report)
    (Driver.Batch.hits warm_report)

let test_batch_isolation () =
  (* A job that cannot compile and a job with an unknown target must not
     disturb their neighbours or the ordering. *)
  let ok k id target =
    Driver.Job.make ~id ~target
      (Dspstone.Kernels.prog (Dspstone.Kernels.find k))
  in
  let jobs =
    [
      ok "fir" 0 "tic25";
      ok "iir_biquad_n_sections" 1 "asip";  (* AGU exhaustion: unsupported *)
      ok "fir" 2 "no_such_target";  (* failed *)
      ok "dot_product" 3 "dsp56";
    ]
  in
  let report = Driver.Batch.run ~domains:2 jobs in
  let status i =
    (List.nth report.Driver.Batch.results i).Driver.Job.status
  in
  Alcotest.(check (list int)) "ordered ids" [ 0; 1; 2; 3 ]
    (List.map (fun (r : Driver.Job.result) -> r.Driver.Job.job)
       report.Driver.Batch.results);
  (match status 0 with
  | Driver.Job.Done _ -> ()
  | _ -> Alcotest.fail "job 0 should succeed");
  (match status 1 with
  | Driver.Job.Unsupported _ -> ()
  | _ -> Alcotest.fail "job 1 should be unsupported");
  (match status 2 with
  | Driver.Job.Failed msg ->
    Alcotest.(check bool) "error lists available targets" true
      (contains ~sub:"tic25" msg)
  | _ -> Alcotest.fail "job 2 should fail");
  match status 3 with
  | Driver.Job.Done _ -> ()
  | _ -> Alcotest.fail "job 3 should succeed"

let test_timeout_interrupts_compile () =
  (* 300 statements keep the pipeline busy for tens of milliseconds, so a
     millisecond deadline passes inside it and a phase or statement poll
     abandons the compile; without the polls the job would finish. *)
  let prog =
    Dfl.Lower.source
      (String.concat "\n"
         ([ "program big;"; "input a, b;"; "output y;"; "begin"; "  y = 0;" ]
         @ List.init 300 (fun i ->
               Printf.sprintf "  y = y + a * %d - b;" ((i mod 7) + 1))
         @ [ "end" ]))
  in
  List.iter
    (fun mode ->
      let options =
        Record.Options.with_selection_mode mode Record.Options.record_
      in
      let job = Driver.Job.make ~id:0 ~target:"tic25" ~options prog in
      match (Driver.Job.run ~timeout:1e-3 job).Driver.Job.status with
      | Driver.Job.Timed_out _ -> ()
      | _ ->
        Alcotest.failf "%s: the compile should time out"
          (Record.Options.selection_mode_name mode))
    [ Record.Options.Tree; Record.Options.Dag ]

(* ---- registry ------------------------------------------------------------ *)

let test_registry () =
  List.iter
    (fun name ->
      match Driver.Registry.find_machine name with
      | Ok m -> Alcotest.(check string) "name round-trips" name m.Target.Machine.name
      | Error msg -> Alcotest.fail msg)
    (Driver.Registry.names ());
  match Driver.Registry.find_machine "tic9000" with
  | Ok _ -> Alcotest.fail "tic9000 should not resolve"
  | Error msg ->
    List.iter
      (fun available ->
        Alcotest.(check bool) ("error lists " ^ available) true
          (contains ~sub:available msg))
      (Driver.Registry.names ())

(* ---- json ---------------------------------------------------------------- *)

let test_json_roundtrip () =
  let doc =
    Driver.Json.Obj
      [
        ("s", Driver.Json.String "a \"quoted\"\nline\twith\\escapes");
        ("i", Driver.Json.Int (-42));
        ("f", Driver.Json.Float 1.5);
        ("b", Driver.Json.Bool true);
        ("n", Driver.Json.Null);
        ("l", Driver.Json.List [ Driver.Json.Int 1; Driver.Json.Obj [] ]);
        ("empty", Driver.Json.List []);
      ]
  in
  List.iter
    (fun indent ->
      let text = Driver.Json.to_string ~indent doc in
      match Driver.Json.of_string text with
      | Ok parsed ->
        Alcotest.(check bool)
          (Printf.sprintf "roundtrip (indent=%b)" indent)
          true (parsed = doc)
      | Error msg -> Alcotest.fail msg)
    [ false; true ]

let test_json_determinism () =
  let doc =
    Driver.Json.Obj
      [ ("b", Driver.Json.Int 1); ("a", Driver.Json.Float 2.0) ]
  in
  Alcotest.(check string) "byte-stable encoding"
    (Driver.Json.to_string doc) (Driver.Json.to_string doc);
  Alcotest.(check string) "field order preserved"
    "{\"b\":1,\"a\":2.0}" (Driver.Json.to_string doc)

let test_json_errors () =
  List.iter
    (fun (label, text) ->
      match Driver.Json.of_string text with
      | Ok _ -> Alcotest.failf "%s should not parse" label
      | Error msg ->
        Alcotest.(check bool) (label ^ " reports an offset") true
          (contains ~sub:"byte" msg))
    [
      ("unterminated string", "{\"a\": \"oops");
      ("trailing garbage", "{} {}");
      ("bare word", "nope");
      ("missing colon", "{\"a\" 1}");
      ("unclosed array", "[1, 2");
    ]

let test_json_parses_jobs_file () =
  (* The checked-in CI jobs file must parse and have the advertised
     shape: 10 kernels x 4 targets. *)
  let ic = open_in (Paths.jobs_table1 ()) in
  let text = really_input_string ic (in_channel_length ic) in
  close_in ic;
  match Driver.Json.of_string text with
  | Error msg -> Alcotest.fail msg
  | Ok doc -> (
    match Driver.Json.member "jobs" doc with
    | Some (Driver.Json.List jobs) ->
      Alcotest.(check int) "40 jobs" 40 (List.length jobs)
    | Some _ | None -> Alcotest.fail "jobs array missing")

let suites =
  [
    ( "driver.digest",
      [
        Alcotest.test_case "prog digest stable" `Quick test_prog_digest_stable;
        Alcotest.test_case "prog digests distinguish kernels" `Quick
          test_prog_digest_distinguishes;
        Alcotest.test_case "prog digest is structural" `Quick
          test_prog_digest_structural;
        Alcotest.test_case "options fingerprint" `Quick test_options_fingerprint;
        Alcotest.test_case "key invalidation" `Quick test_key_invalidation;
      ] );
    ( "driver.cache",
      [
        Alcotest.test_case "hit = miss on all kernels x targets" `Quick
          test_cache_hit_equals_miss;
        Alcotest.test_case "option sets do not collide" `Quick
          test_cache_option_isolation;
        Alcotest.test_case "corrupt entries tolerated" `Quick
          test_cache_corrupt_tolerance;
        Alcotest.test_case "concurrent writers tolerated" `Quick
          test_cache_concurrent_writers;
        Alcotest.test_case "memory tier evicts LRU" `Quick
          test_cache_lru_eviction;
      ] );
    ( "driver.batch",
      [
        Alcotest.test_case "deterministic across worker counts and cache states"
          `Quick test_batch_determinism;
        Alcotest.test_case "failures are isolated, ordering stable" `Quick
          test_batch_isolation;
        Alcotest.test_case "timeout interrupts a long compile" `Quick
          test_timeout_interrupts_compile;
      ] );
    ( "driver.registry",
      [ Alcotest.test_case "find_machine" `Quick test_registry ] );
    ( "driver.json",
      [
        Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
        Alcotest.test_case "deterministic encoding" `Quick test_json_determinism;
        Alcotest.test_case "parse errors carry offsets" `Quick test_json_errors;
        Alcotest.test_case "CI jobs file parses" `Quick
          test_json_parses_jobs_file;
      ] );
    ( "driver.key",
      [
        Alcotest.test_case "structural copy, same key" `Quick
          test_key_memo_structural;
        Alcotest.test_case "same name, other machine" `Quick
          test_key_memo_same_name;
        Alcotest.test_case "4 domains agree with sequential" `Quick
          test_key_memo_domains;
        Alcotest.test_case "fixed-salt keys pinned" `Quick test_key_pinned;
      ] );
  ]
