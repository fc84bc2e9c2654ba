(* The DSE subsystem: sampler determinism and validity, Pareto-front
   algebra, and a small end-to-end sweep whose deterministic document must
   be byte-identical across runs and whose warm rerun must be served from
   the cache — the properties the dse-smoke CI job asserts at scale. *)

(* ---- sampler --------------------------------------------------------------- *)

let test_sampler_valid () =
  (* Every drawn point validates and builds a working machine, across a
     spread of seeds: the sampler's ranges are the validator's ranges. *)
  List.iter
    (fun seed ->
      List.iter
        (fun (p : Dse.Sample.point) ->
          (* validate raises on a bad record *)
          Target.Asip.validate p.Dse.Sample.params;
          let m = Target.Asip.machine ~name:p.Dse.Sample.name p.Dse.Sample.params in
          Alcotest.(check string)
            "machine carries the canonical name" p.Dse.Sample.name
            m.Target.Machine.name)
        (Dse.Sample.points ~seed ~count:50))
    [ 0; 1; 42; 1997; 123456789 ]

let test_sampler_deterministic () =
  let a = Dse.Sample.points ~seed:42 ~count:200 in
  let b = Dse.Sample.points ~seed:42 ~count:200 in
  List.iter2
    (fun (x : Dse.Sample.point) (y : Dse.Sample.point) ->
      Alcotest.(check string) "same name" x.Dse.Sample.name y.Dse.Sample.name;
      Alcotest.(check bool) "same params" true
        (x.Dse.Sample.params = y.Dse.Sample.params))
    a b;
  (* O(1) random access agrees with the sequence. *)
  let p137 = Dse.Sample.point ~seed:42 137 in
  let q137 = List.nth (Dse.Sample.points ~seed:42 ~count:200) 137 in
  Alcotest.(check string) "point 137 regenerated in isolation"
    q137.Dse.Sample.name p137.Dse.Sample.name

let test_sampler_seed_sensitivity () =
  let names seed =
    List.map (fun (p : Dse.Sample.point) -> p.Dse.Sample.name)
      (Dse.Sample.points ~seed ~count:64)
  in
  Alcotest.(check bool) "different seeds draw different sequences" false
    (names 42 = names 43)

let test_sampler_covers_ranges () =
  (* 256 draws must exercise both ends of every knob — a stuck bit in the
     PRNG mix would show up here. *)
  let ps =
    List.map (fun (p : Dse.Sample.point) -> p.Dse.Sample.params)
      (Dse.Sample.points ~seed:7 ~count:256)
  in
  let exists f = List.exists f ps in
  Alcotest.(check bool) "1 accumulator drawn" true
    (exists (fun p -> p.Target.Asip.accumulators = 1));
  Alcotest.(check bool) "2 accumulators drawn" true
    (exists (fun p -> p.Target.Asip.accumulators = 2));
  Alcotest.(check bool) "multiplier on and off" true
    (exists (fun p -> p.Target.Asip.has_multiplier)
    && exists (fun p -> not p.Target.Asip.has_multiplier));
  Alcotest.(check bool) "mac on and off" true
    (exists (fun p -> p.Target.Asip.has_mac)
    && exists (fun p -> not p.Target.Asip.has_mac));
  Alcotest.(check bool) "imm_bits spans 4..16" true
    (exists (fun p -> p.Target.Asip.imm_bits <= 5)
    && exists (fun p -> p.Target.Asip.imm_bits >= 15));
  Alcotest.(check bool) "address_regs spans 2..8" true
    (exists (fun p -> p.Target.Asip.address_regs = 2)
    && exists (fun p -> p.Target.Asip.address_regs = 8))

let test_name_injective () =
  let ps = Dse.Sample.points ~seed:3 ~count:256 in
  List.iter
    (fun (a : Dse.Sample.point) ->
      List.iter
        (fun (b : Dse.Sample.point) ->
          if a.Dse.Sample.name = b.Dse.Sample.name then
            Alcotest.(check bool)
              "equal names imply equal params" true
              (a.Dse.Sample.params = b.Dse.Sample.params))
        ps)
    ps

let test_validate_reports_value () =
  (* Asip.validate rejections must name the offending value — the message
     a failed sweep sample would surface. *)
  let base =
    {
      Target.Asip.accumulators = 1;
      has_multiplier = false;
      has_mac = false;
      has_saturation = false;
      imm_bits = 8;
      address_regs = 4;
    }
  in
  Alcotest.check_raises "accumulators out of range"
    (Invalid_argument "Asip: accumulators must be 1 or 2 (got 7)") (fun () ->
      Target.Asip.validate { base with Target.Asip.accumulators = 7 });
  Alcotest.check_raises "imm_bits out of range"
    (Invalid_argument "Asip: imm_bits must be within 4..16 (got 3)") (fun () ->
      Target.Asip.validate { base with Target.Asip.imm_bits = 3 });
  Alcotest.check_raises "address_regs out of range"
    (Invalid_argument "Asip: need at least 2 address regs (got 1)") (fun () ->
      Target.Asip.validate { base with Target.Asip.address_regs = 1 })

(* ---- pareto ---------------------------------------------------------------- *)

let test_dominates () =
  Alcotest.(check bool) "strictly better dominates" true
    (Dse.Pareto.dominates [| 1; 1 |] [| 2; 2 |]);
  Alcotest.(check bool) "better on one axis dominates" true
    (Dse.Pareto.dominates [| 1; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "equal does not dominate" false
    (Dse.Pareto.dominates [| 2; 2 |] [| 2; 2 |]);
  Alcotest.(check bool) "trade-off does not dominate" false
    (Dse.Pareto.dominates [| 1; 3 |] [| 2; 2 |]);
  Alcotest.(check bool) "worse does not dominate" false
    (Dse.Pareto.dominates [| 3; 3 |] [| 2; 2 |]);
  Alcotest.check_raises "dimension mismatch rejected"
    (Invalid_argument "Pareto.dominates: dimension mismatch") (fun () ->
      ignore (Dse.Pareto.dominates [| 1 |] [| 1; 2 |]))

let front = Dse.Pareto.front (fun v -> v)

let test_front_basic () =
  Alcotest.(check (list (array int)))
    "dominated points removed"
    [ [| 1; 3 |]; [| 3; 1 |] ]
    (front [ [| 1; 3 |]; [| 3; 1 |]; [| 3; 3 |]; [| 4; 2 |] ])

let test_front_ties () =
  (* Duplicate optimal points do not dominate each other: both stay. *)
  Alcotest.(check (list (array int)))
    "ties kept, input order preserved"
    [ [| 1; 1 |]; [| 1; 1 |] ]
    (front [ [| 1; 1 |]; [| 2; 2 |]; [| 1; 1 |] ])

let test_front_singleton_empty () =
  Alcotest.(check (list (array int))) "singleton is its own front"
    [ [| 5; 5 |] ]
    (front [ [| 5; 5 |] ]);
  Alcotest.(check (list (array int))) "empty front of nothing" [] (front [])

let test_front_single_axis () =
  Alcotest.(check (list (array int))) "1-d front is the minimum"
    [ [| 1 |] ]
    (front [ [| 3 |]; [| 1 |]; [| 2 |] ])

(* ---- end-to-end sweep ------------------------------------------------------ *)

let sweep_config cache =
  {
    Dse.Sweep.seed = 42;
    samples = 8;
    kernels = [ "fir"; "dot_product" ];
    domains = 1;
    cache;
    selection = Record.Options.Tree;
    matcher = Burg.Matcher.Table;
  }

let test_sweep_deterministic_json () =
  let doc () =
    Driver.Json.to_string ~indent:true
      (Dse.Sweep.to_json (Dse.Sweep.run (sweep_config None)))
  in
  Alcotest.(check string) "deterministic document byte-identical" (doc ())
    (doc ())

let test_sweep_scores_every_sample () =
  let r = Dse.Sweep.run (sweep_config None) in
  Alcotest.(check int) "one score per sample" 8
    (List.length r.Dse.Sweep.scores);
  Alcotest.(check bool) "non-empty front" true (r.Dse.Sweep.front <> []);
  (* The front only ranks complete architectures, and every front member
     is non-dominated among them. *)
  let complete =
    List.filter (fun (s : Dse.Score.t) -> s.Dse.Score.complete)
      r.Dse.Sweep.scores
  in
  List.iter
    (fun (f : Dse.Score.t) ->
      Alcotest.(check bool) "front members are complete" true
        f.Dse.Score.complete;
      Alcotest.(check bool) "front members are non-dominated" false
        (List.exists
           (fun (s : Dse.Score.t) ->
             Dse.Pareto.dominates (Dse.Score.objectives s)
               (Dse.Score.objectives f))
           complete))
    r.Dse.Sweep.front

let test_sweep_warm_cache () =
  let cache = Driver.Cache.create ~memory_slots:1024 () in
  let cold = Dse.Sweep.run (sweep_config (Some cache)) in
  let warm = Dse.Sweep.run (sweep_config (Some cache)) in
  Alcotest.(check bool) "cold run completed jobs" true
    (cold.Dse.Sweep.completed > 0);
  Alcotest.(check bool)
    (Printf.sprintf "warm hit rate >= 0.9 (got %.2f)"
       (Dse.Sweep.hit_rate warm))
    true
    (Dse.Sweep.hit_rate warm >= 0.9);
  (* And the cache must not change the answer. *)
  let enc r = Driver.Json.to_string (Dse.Sweep.to_json r) in
  Alcotest.(check string) "warm document identical to cold" (enc cold)
    (enc warm)

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  at 0

let test_sweep_rejects_unknown_kernel () =
  let config = { (sweep_config None) with Dse.Sweep.kernels = [ "nope" ] } in
  match Dse.Sweep.run config with
  | _ -> Alcotest.fail "unknown kernel accepted"
  | exception Invalid_argument msg ->
    Alcotest.(check bool) "error names the kernel" true
      (contains_substring msg "nope")

let test_cost_model_monotone () =
  let base =
    {
      Target.Asip.accumulators = 1;
      has_multiplier = false;
      has_mac = false;
      has_saturation = false;
      imm_bits = 8;
      address_regs = 4;
    }
  in
  let c = Dse.Score.arch_cost in
  Alcotest.(check bool) "multiplier costs gates" true
    (c { base with Target.Asip.has_multiplier = true } > c base);
  Alcotest.(check bool) "mac costs gates" true
    (c { base with Target.Asip.has_mac = true } > c base);
  Alcotest.(check bool) "saturation costs gates" true
    (c { base with Target.Asip.has_saturation = true } > c base);
  Alcotest.(check bool) "more ARs cost gates" true
    (c { base with Target.Asip.address_regs = 8 } > c base);
  Alcotest.(check bool) "wider immediates cost gates" true
    (c { base with Target.Asip.imm_bits = 16 } > c base)

(* ---- serve stats carries the eviction counter ------------------------------ *)

let test_serve_stats_evictions () =
  let cache = Driver.Cache.create ~memory_slots:8 () in
  let config =
    {
      Driver.Serve.domains = 1;
      deterministic = true;
      cache = Some cache;
      matcher = None;
    }
  in
  let pool = Driver.Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Driver.Pool.shutdown pool)
    (fun () ->
      let state = Driver.Serve.fresh_state () in
      let str field reply =
        Option.bind (Driver.Json.member field reply) Driver.Json.to_string_lit
      in
      (* A request naming a removed selection mode gets an error reply and
         leaves the daemon serving: the next request on the same state
         completes. *)
      let reply, _ =
        Driver.Serve.handle pool config state
          {|{"jobs": [{"kernel": "fir", "target": "tic25",
                        "selection": "exhaustive"}]}|}
      in
      Alcotest.(check (option string)) "removed mode is an error reply"
        (Some "error") (str "status" reply);
      Alcotest.(check (option string)) "error names the job and the mode"
        (Some {|job 0: unknown selection "exhaustive"|})
        (str "error" reply);
      (* A "deterministic" member that is not a boolean is an error too,
         not the config's default. *)
      let reply, _ =
        Driver.Serve.handle pool config state
          {|{"jobs": [{"kernel": "fir", "target": "tic25"}],
             "deterministic": "yes"}|}
      in
      Alcotest.(check (option string)) "mistyped deterministic is an error"
        (Some {|"deterministic" must be a boolean|})
        (str "error" reply);
      let reply, _ =
        Driver.Serve.handle pool config state
          {|{"jobs": [{"kernel": "fir", "target": "tic25",
                        "selection": "dag"}]}|}
      in
      (match Driver.Json.member "results" reply with
      | Some (Driver.Json.List [ result ]) ->
        Alcotest.(check (option string)) "next request completes"
          (Some "done") (str "status" result)
      | _ -> Alcotest.fail "next request lacks its one result");
      let reply, stop =
        Driver.Serve.handle pool config state {|{"op": "stats"}|}
      in
      Alcotest.(check (option int)) "only the completed job is served"
        (Some 1)
        (Option.bind (Driver.Json.member "jobs_served" reply)
           Driver.Json.to_int);
      Alcotest.(check bool) "stats is not a shutdown" false stop;
      let counters obj names =
        match Driver.Json.member obj reply with
        | Some (Driver.Json.Obj fields) ->
          List.iter
            (fun field ->
              match List.assoc_opt field fields with
              | Some (Driver.Json.Int n) ->
                Alcotest.(check bool)
                  (field ^ " is a non-negative counter")
                  true (n >= 0)
              | _ ->
                Alcotest.fail
                  (Printf.sprintf "stats %s reply lacks %s" obj field))
            names
        | _ -> Alcotest.fail ("stats reply lacks a " ^ obj ^ " object")
      in
      counters "cache"
        [ "memory_hits"; "disk_hits"; "misses"; "stores"; "evictions" ];
      counters "hashcons" [ "live"; "hits"; "misses"; "max_chain" ])

(* ---- per-architecture memory ---------------------------------------------- *)

(* Exploration builds one matcher per sampled architecture and labels only
   the kernels' trees with it, so a matcher must cost memory in proportion
   to the nodes it labels.  Each matcher's slot table is chunked by
   hash-cons id; with 65,536-slot chunks these 64 matchers allocated
   37 MB.  The intern table is emptied first so the trees get fresh,
   adjacent ids wherever this test runs in the suite, as in a sweep that
   interns its kernels once.  Ids are never reused, though, and each
   table's spine holds a cell per 1,024 ids up to the highest it sets:
   about 6 MB here at the ~400k ids the suite has minted by now, 11 MB
   past 4M. *)
let test_asip_matchers_stay_small () =
  let trees =
    List.concat_map
      (fun k ->
        List.map
          (fun (s : Ir.Prog.stmt) -> s.Ir.Prog.src)
          (Ir.Prog.stmts (Dspstone.Kernels.prog k)))
      Dspstone.Kernels.all
  in
  Alcotest.(check int) "Table-1 statement trees" 29 (List.length trees);
  Ir.Hashcons.clear ();
  List.iter (fun t -> ignore (Ir.Hashcons.intern t)) trees;
  (* [Gc.allocated_bytes], with the minor heap's words counted exactly. *)
  let allocated_bytes () =
    let _, promoted, major = Gc.counters () in
    (Gc.minor_words () +. major -. promoted) *. float (Sys.word_size / 8)
  in
  let before = allocated_bytes () in
  List.iter
    (fun (p : Dse.Sample.point) ->
      let machine =
        Target.Asip.machine ~name:p.Dse.Sample.name p.Dse.Sample.params
      in
      let m = Burg.Matcher.create machine.Target.Machine.grammar in
      List.iter (fun t -> ignore (Burg.Matcher.label m t)) trees)
    (Dse.Sample.points ~seed:3 ~count:64);
  let mb = (allocated_bytes () -. before) /. 1e6 in
  if mb > 12.0 then
    Alcotest.failf "64 ASIP matchers allocated %.1f MB, more than 12 MB" mb

let suites =
  [
    ( "dse sampler",
      [
        Alcotest.test_case "every sample validates and builds" `Quick
          test_sampler_valid;
        Alcotest.test_case "same seed, same sequence" `Quick
          test_sampler_deterministic;
        Alcotest.test_case "different seeds differ" `Quick
          test_sampler_seed_sensitivity;
        Alcotest.test_case "draws cover the knob ranges" `Quick
          test_sampler_covers_ranges;
        Alcotest.test_case "names are injective over draws" `Quick
          test_name_injective;
        Alcotest.test_case "validate reports the offending value" `Quick
          test_validate_reports_value;
      ] );
    ( "dse memory",
      [
        Alcotest.test_case "64 fresh ASIP matchers allocate at most 12 MB"
          `Quick test_asip_matchers_stay_small;
      ] );
    ( "dse pareto",
      [
        Alcotest.test_case "domination" `Quick test_dominates;
        Alcotest.test_case "dominated points removed" `Quick test_front_basic;
        Alcotest.test_case "ties kept" `Quick test_front_ties;
        Alcotest.test_case "singleton and empty" `Quick
          test_front_singleton_empty;
        Alcotest.test_case "single axis" `Quick test_front_single_axis;
      ] );
    ( "dse sweep",
      [
        Alcotest.test_case "deterministic document" `Quick
          test_sweep_deterministic_json;
        Alcotest.test_case "scores every sample, ranks the complete" `Quick
          test_sweep_scores_every_sample;
        Alcotest.test_case "warm rerun served from the cache" `Quick
          test_sweep_warm_cache;
        Alcotest.test_case "unknown kernel rejected" `Quick
          test_sweep_rejects_unknown_kernel;
        Alcotest.test_case "cost model monotone in features" `Quick
          test_cost_model_monotone;
      ] );
    ( "serve stats",
      [
        Alcotest.test_case "stats reply carries cache counters" `Quick
          test_serve_stats_evictions;
      ] );
  ]
