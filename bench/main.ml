(* Regenerates every table and figure of the paper (see DESIGN.md §2 for the
   experiment index), the §3.1 overhead claim, the ablation studies of the
   §3.3 optimizations, and Bechamel timing benchmarks of the compiler
   phases. *)

(* Replace the first occurrence of [pat] in [s] with [rep]. *)
let str_replace_first s pat rep =
  let n = String.length s and m = String.length pat in
  let rec find i =
    if i + m > n then None
    else if String.sub s i m = pat then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> s
  | Some i ->
    String.sub s 0 i ^ rep ^ String.sub s (i + m) (n - i - m)

let section title =
  Format.printf "@.=== %s ===@.@." title

(* ---- Table 1: DSPStone code size relative to hand assembly -------------- *)

(* The machine-readable twin of the Table 1 text output: every per-kernel
   measurement plus the derived percentages, written as BENCH_table1.json so
   the perf trajectory is diffable across PRs (EXPERIMENTS.md "JSON bench
   artifacts"). *)
let write_table1_json rows =
  let row_json (r : Dspstone.Suite.row) =
    Driver.Json.Obj
      [
        ("kernel", Driver.Json.String r.Dspstone.Suite.kernel);
        ("hand_words", Driver.Json.Int r.hand_words);
        ("conv_words", Driver.Json.Int r.conv_words);
        ("record_words", Driver.Json.Int r.record_words);
        ("hand_cycles", Driver.Json.Int r.hand_cycles);
        ("conv_cycles", Driver.Json.Int r.conv_cycles);
        ("record_cycles", Driver.Json.Int r.record_cycles);
        ("conv_pct", Driver.Json.Int (Dspstone.Suite.conv_pct r));
        ("record_pct", Driver.Json.Int (Dspstone.Suite.record_pct r));
      ]
  in
  let wins =
    List.length
      (List.filter
         (fun r -> Dspstone.Suite.record_pct r <= Dspstone.Suite.conv_pct r)
         rows)
  in
  let doc =
    Driver.Json.Obj
      [
        ("table", Driver.Json.String "table1");
        ("machine", Driver.Json.String "tic25");
        ("rows", Driver.Json.List (List.map row_json rows));
        ("record_wins", Driver.Json.Int wins);
        ("kernels", Driver.Json.Int (List.length rows));
      ]
  in
  let oc = open_out "BENCH_table1.json" in
  output_string oc (Driver.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  wins

let table1 () =
  section "Table 1: size of compiled programs relative to assembly code (%)";
  let rows = Dspstone.Suite.table1 () in
  Format.printf "%a@." Dspstone.Suite.pp_table1 rows;
  let wins = write_table1_json rows in
  Format.printf
    "RECORD beats or matches the conventional compiler in %d/%d cases@."
    wins (List.length rows);
  Format.printf "(rows written to BENCH_table1.json)@.@.";
  rows

let extended_kernels () =
  section "Extension: DSPStone kernels beyond Table 1 (lms, matrix)";
  Format.printf "%a@." Dspstone.Suite.pp_table1 (Dspstone.Suite.extended ())

let static_timing () =
  section "§3.2 requirement 4: static execution-time analysis";
  Format.printf "%-26s %12s %12s %10s@." "Program" "static" "simulated"
    "deadline?";
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let prog = Dspstone.Kernels.prog k in
      let c = Record.Pipeline.compile Target.Tic25.machine prog in
      let static = Record.Timing.cycles c in
      let _, simulated = Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs in
      Format.printf "%-26s %12d %12d %10s@." k.name static simulated
        (if Record.Timing.meets_deadline c ~deadline:200 then "<=200" else ">200");
      assert (static = simulated))
    Dspstone.Kernels.all;
  Format.printf
    "static analysis is cycle-exact (asserted against the simulator)@.@."

(* ---- §3.1: the DSPStone overhead claim (2x-8x) --------------------------- *)

let overhead_claim rows =
  section "DSPStone overhead of the conventional compiler (paper: 2x-8x)";
  Format.printf "%-26s %12s %12s@." "Program" "size factor" "cycle factor";
  List.iter
    (fun (r : Dspstone.Suite.row) ->
      Format.printf "%-26s %11.2fx %11.2fx@." r.kernel
        (float r.conv_words /. float r.hand_words)
        (float r.conv_cycles /. float r.hand_cycles))
    rows;
  let avg f =
    List.fold_left (fun acc r -> acc +. f r) 0.0 rows
    /. float (List.length rows)
  in
  Format.printf "average: %.2fx size, %.2fx cycles@.@."
    (avg (fun (r : Dspstone.Suite.row) ->
         float r.conv_words /. float r.hand_words))
    (avg (fun (r : Dspstone.Suite.row) ->
         float r.conv_cycles /. float r.hand_cycles))

(* ---- Fig. 1: the processor cube ----------------------------------------- *)

let fig1 () =
  section "Fig. 1: processor cube classification of the bundled targets";
  let machines =
    [
      Target.Tic25.machine;
      Target.Dsp56.machine;
      Target.Risc32.machine;
      Target.Asip.machine Target.Asip.default;
      Ise.Gen.machine Rtl.Samples.acc16;
      Mdl.load
        "machine mdl16\nregister acc\ncounter idx 4\n\
         rule ld acc <- mem\nrule st mem <- acc\n\
         rule add acc <- add(acc, mem)";
    ]
  in
  List.iter
    (fun (m : Target.Machine.t) ->
      Format.printf "%-10s %-55s -> %a@." m.name m.description
        Target.Classify.pp m.classification)
    machines;
  Format.printf "@."

(* ---- Fig. 2/3: RECORD flow from an RT netlist ---------------------------- *)

let fig2_fig3 () =
  section "Fig. 2: RECORD compiler generation from an RT-level netlist";
  let net = Rtl.Samples.acc16 in
  let transfers = Ise.Extract.run net in
  let machine = Ise.Gen.machine net in
  Format.printf
    "netlist %s: %d components, %d-bit instructions@.ISE: %d transfers, %d \
     alternatives pruned by justification@.generated grammar: %d rules@.@."
    net.Rtl.Netlist.name
    (List.length net.Rtl.Netlist.comps)
    (Rtl.Netlist.word_width net)
    (List.length transfers)
    (Ise.Extract.alternatives_pruned net)
    (List.length machine.Target.Machine.grammar.Burg.Grammar.rules);
  section "Fig. 3: extracted instruction patterns with justified bits";
  List.iter
    (fun t ->
      Format.printf "%a@.    bits: /%s/@." Ise.Transfer.pp t
        (Ise.Transfer.encoding net t))
    transfers;
  (* End-to-end: compile a DSPStone kernel with the generated compiler and
     run the encoded words on the netlist itself. *)
  let k = Dspstone.Kernels.find "complex_multiply" in
  let prog = Dspstone.Kernels.prog k in
  let c = Record.Pipeline.compile machine prog in
  let outs, cycles = Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs in
  let st =
    Ise.Encode.run_on_netlist net ~layout:c.Record.Pipeline.layout
      ~inputs:k.Dspstone.Kernels.inputs ~pool:c.Record.Pipeline.pool
      c.Record.Pipeline.asm
  in
  let expected = Dspstone.Kernels.reference_outputs k in
  let agree =
    List.for_all
      (fun (name, values) ->
        List.assoc name outs = values
        && Ise.Encode.read_var net st ~layout:c.Record.Pipeline.layout name
           = values)
      expected
  in
  Format.printf
    "@.complex_multiply via the generated compiler: %d words, %d cycles;@.\
     abstract simulator and RT-netlist execution both %s the reference@.@."
    (Record.Pipeline.words c) cycles
    (if agree then "MATCH" else "DIFFER FROM")

(* ---- Fig. 4/5: covering a data flow tree with instruction patterns ------- *)

let fig45 () =
  section "Fig. 4/5: covering data flow trees with instruction patterns";
  (* The Fig. 4 flavour of tree: y = x[0] * 5 + 7, against the C25 set. *)
  let tree =
    Ir.Tree.((ref_ (Ir.Mref.elem "x" 0) * const 5) + const 7)
  in
  let matcher = Burg.Matcher.create Target.Tic25.machine.Target.Machine.grammar in
  Format.printf "tree: %s@.@." (Ir.Tree.to_string tree);
  (match Burg.Matcher.best matcher tree with
  | None -> Format.printf "no cover!@."
  | Some cover ->
    Format.printf "optimal cover (original tree): %s@.cost %d, %d patterns@.@."
      (Burg.Cover.to_string cover) (Burg.Cover.cost cover)
      (Burg.Cover.pattern_count cover));
  let variants = Ir.Algebra.variants tree in
  (match Burg.Matcher.best_of_variants matcher variants with
  | None -> Format.printf "no cover!@."
  | Some (v, cover) ->
    Format.printf
      "after trying %d algebraic variants, best tree: %s@.cover: %s@.cost %d, \
       %d patterns@.@."
      (List.length variants) (Ir.Tree.to_string v)
      (Burg.Cover.to_string cover) (Burg.Cover.cost cover)
      (Burg.Cover.pattern_count cover))

(* ---- Ablations of the §3.3 optimizations --------------------------------- *)

let compile_words ?(machine = Target.Tic25.machine) options kernel =
  let prog = Dspstone.Kernels.prog kernel in
  let c = Record.Pipeline.compile ~options machine prog in
  let _, cycles = Record.Pipeline.execute c ~inputs:kernel.Dspstone.Kernels.inputs in
  (Record.Pipeline.words c, cycles)

let ablation_selection () =
  section "Ablation: algebraic variant search and peephole (tic25, words)";
  let opts = Record.Options.record_ in
  let variants_off =
    { opts with Record.Options.selection = Record.Options.Optimal_single }
  in
  let peephole_off = { opts with Record.Options.peephole = false } in
  let folding_on = Record.Options.with_folding opts in
  Format.printf "%-26s %8s %10s %10s %9s@." "Program" "RECORD" "-variants"
    "-peephole" "+folding";
  let synthetic =
    [
      (* Constant on the left: commutativity enables MPYK. *)
      ("y = 2*x + z", "program s1; input x, z; output y;\nbegin y = 2 * x + z; end");
      (* Power-of-two multiply: the shift rewrite enables LAC-with-shift. *)
      ("y = x * 8", "program s2; input x; output y;\nbegin y = x * 8; end");
      (* Store/load round-trip: peephole forwarding removes the reload. *)
      ( "t = a+b; y = t-c",
        "program s3; input a, b, c; output y; var t;\n\
         begin t = a + b; y = t - c; end" );
      (* Constant expression: folding collapses it to an immediate. *)
      ( "y = x + (3+4)*1",
        "program s4; input x; output y;\nbegin y = x + (3 + 4) * 1; end" );
    ]
  in
  let words_of_prog options prog =
    Record.Pipeline.words (Record.Pipeline.compile ~options Target.Tic25.machine prog)
  in
  List.iter
    (fun (label, source) ->
      let prog = Dfl.Lower.source source in
      Format.printf "%-26s %8d %10d %10d %9d@." label
        (words_of_prog opts prog)
        (words_of_prog variants_off prog)
        (words_of_prog peephole_off prog)
        (words_of_prog folding_on prog))
    synthetic;
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let w o = fst (compile_words o k) in
      Format.printf "%-26s %8d %10d %10d %9d@." k.name (w opts)
        (w variants_off) (w peephole_off) (w folding_on))
    Dspstone.Kernels.all;
  Format.printf "@."

let ablation_unroll () =
  section "Extension: full loop unrolling (size vs cycles, tic25)";
  Format.printf "%-26s %16s %16s@." "Program" "rolled (w/cyc)"
    "unrolled (w/cyc)";
  List.iter
    (fun name ->
      let k = Dspstone.Kernels.find name in
      let rolled = compile_words Record.Options.record_ k in
      let unrolled =
        compile_words (Record.Options.with_unrolling 16 Record.Options.record_) k
      in
      let pr (w, c) = Printf.sprintf "%d / %d" w c in
      Format.printf "%-26s %16s %16s@." name (pr rolled) (pr unrolled))
    [ "dot_product"; "matrix_1x3"; "n_real_updates"; "fir" ];
  Format.printf "@."

let ablation_modes () =
  section "Ablation: mode-change minimization (Liao), saturating filter";
  (* A saturation-heavy kernel where lazy mode tracking pays off. *)
  let source =
    {|
program sat_chain;
param N = 8;
input x[N], c[N];
output y;
var acc, t;
begin
  acc = 0;
  for i = 0 to N - 1 do
    t = sat(c[i] * x[i] + t);
    acc = sat(acc + t);
    acc = sat(acc - (t >> 2));
  end;
  y = sat(acc + 1);
end
|}
  in
  let prog = Dfl.Lower.source source in
  let inputs =
    [ ("x", Array.init 8 (fun i -> i - 3)); ("c", Array.init 8 (fun i -> 5 - i)) ]
  in
  List.iter
    (fun (label, strategy) ->
      let options =
        { Record.Options.record_ with Record.Options.mode_strategy = strategy }
      in
      let c = Record.Pipeline.compile ~options Target.Tic25.machine prog in
      let _, cycles = Record.Pipeline.execute c ~inputs in
      Format.printf
        "%-6s  mode changes in code: %3d   words: %3d   cycles: %4d@." label
        c.Record.Pipeline.stats.mode_changes (Record.Pipeline.words c) cycles)
    [ ("lazy", Opt.Modeopt.Lazy); ("naive", Opt.Modeopt.Naive) ];
  Format.printf "@."

let ablation_compaction () =
  section "Ablation: compaction and memory-bank assignment (dsp56)";
  let machine = Target.Dsp56.machine in
  Format.printf "%-26s %17s %17s %17s@." "Program" "full (w/cyc)"
    "-compaction" "-membank";
  List.iter
    (fun name ->
      let k = Dspstone.Kernels.find name in
      let full = compile_words ~machine Record.Options.record_ k in
      let nocomp =
        compile_words ~machine
          { Record.Options.record_ with Record.Options.compaction = false }
          k
      in
      let nobank =
        compile_words ~machine
          { Record.Options.record_ with Record.Options.membank = false }
          k
      in
      let pr (w, c) = Printf.sprintf "%d / %d" w c in
      Format.printf "%-26s %17s %17s %17s@." name (pr full) (pr nocomp)
        (pr nobank))
    [ "complex_multiply"; "complex_update"; "n_real_updates"; "dot_product" ];
  Format.printf "@."

let ablation_offset () =
  section "Ablation: simple offset assignment (Bartley/Liao), AR reloads";
  let cases =
    [
      ( "iir_biquad_one_section",
        Opt.Offset.access_sequence
          (Dspstone.Kernels.prog
             (Dspstone.Kernels.find "iir_biquad_one_section")) );
      ( "complex_update",
        Opt.Offset.access_sequence
          (Dspstone.Kernels.prog (Dspstone.Kernels.find "complex_update")) );
      ( "liao's example",
        [ "a"; "b"; "c"; "d"; "a"; "c"; "b"; "a"; "d"; "a"; "c"; "d" ] );
    ]
  in
  Format.printf "%-26s %10s %10s  %s@." "Access sequence" "declared" "SOA"
    "layout order";
  List.iter
    (fun (name, accesses) ->
      let vars = List.sort_uniq String.compare accesses in
      let r = Opt.Offset.solve ~vars accesses in
      Format.printf "%-26s %10d %10d  %s@." name r.Opt.Offset.declared_cost
        r.Opt.Offset.soa_cost
        (String.concat " " r.Opt.Offset.order))
    cases;
  Format.printf "@."

let asip_sweep () =
  section "Extension: ASIP generic-parameter sweep (fir / dot_product)";
  let settings =
    [
      ("full (mul+mac+sat)", Target.Asip.default);
      ("no MAC", { Target.Asip.default with Target.Asip.has_mac = false });
      ( "no multiplier",
        {
          Target.Asip.default with
          Target.Asip.has_mac = false;
          has_multiplier = false;
        } );
      ("2 accumulators", { Target.Asip.default with Target.Asip.accumulators = 2 });
    ]
  in
  Format.printf "%-22s %16s %16s@." "ASIP parameters" "fir (w/cyc)"
    "dot (w/cyc)";
  List.iter
    (fun (label, params) ->
      let machine = Target.Asip.machine params in
      let m name =
        let w, c =
          compile_words ~machine Record.Options.record_
            (Dspstone.Kernels.find name)
        in
        Printf.sprintf "%d / %d" w c
      in
      Format.printf "%-22s %16s %16s@." label (m "fir") (m "dot_product"))
    settings;
  Format.printf "@."

let n_sweep () =
  section "Robustness: Table-1 shape across problem sizes (tic25)";
  (* The paper evaluates at N=16; re-parameterize the looped kernels and
     check the conventional-vs-RECORD factor persists: code size is
     N-independent, cycles scale linearly. *)
  let reparam (k : Dspstone.Kernels.t) n =
    let source =
      str_replace_first k.Dspstone.Kernels.source "param N = 16;"
        (Printf.sprintf "param N = %d;" n)
    in
    Dfl.Lower.source source
  in
  Format.printf "%-16s %4s %16s %16s %8s@." "Program" "N" "RECORD (w/cyc)"
    "conv (w/cyc)" "factor";
  List.iter
    (fun name ->
      List.iter
        (fun n ->
          let k = Dspstone.Kernels.find name in
          let prog = reparam k n in
          let data seed len =
            Array.init len (fun i -> (((i * 31) + (seed * 17)) mod 19) - 9)
          in
          let inputs =
            List.map
              (fun (d : Ir.Prog.decl) ->
                match d.storage with
                | Ir.Prog.Input -> [ (d.name, data (String.length d.name) d.size) ]
                | _ -> [])
              prog.Ir.Prog.decls
            |> List.concat
          in
          let measure options =
            let c = Record.Pipeline.compile ~options Target.Tic25.machine prog in
            let outs, cycles = Record.Pipeline.execute c ~inputs in
            let expected = Ir.Eval.run_with_inputs prog inputs in
            assert (List.for_all (fun (nm, v) -> List.assoc nm outs = v) expected);
            (Record.Pipeline.words c, cycles)
          in
          let rw, rc = measure Record.Options.record_ in
          let cw, cc = measure Record.Options.conventional in
          Format.printf "%-16s %4d %10d / %-6d %8d / %-6d %7.2fx@." name n rw
            rc cw cc
            (float cc /. float rc))
        [ 4; 16; 64 ])
    [ "dot_product"; "fir"; "n_real_updates"; "convolution" ];
  Format.printf "@."


(* ---- Selection sweep: variant limit vs select-emit cost ------------------ *)

(* Sweeps the variant limit over the Table-1 kernels and measures what the
   hash-consed IR and the shared DP table buy: wall-clock of the select-emit
   phase (cold = per-node memo cleared before each pass, warm = memo kept
   across passes) plus the matcher/variant counters, written as
   BENCH_selection.json.  The table engine's offline automaton survives a
   clear by design — its construction cost is reported separately as
   table_build_ms, not smeared into every cold pass.  The
   seed_baseline entry is the pre-hashcons compiler measured the same way
   (mean select-emit per Table-1 pass at limit 64), kept so the artifact
   documents the claim: limit 512 with sharing beats limit 64 without it. *)

let seed_baseline_limit = 64
let seed_baseline_ms = 1.370

let select_emit_ms (c : Record.Pipeline.compiled) =
  match List.assoc_opt "select-emit" c.Record.Pipeline.phase_ms with
  | Some ms -> ms
  | None -> 0.0

let add_sel (a : Record.Pipeline.selection_stats)
    (b : Record.Pipeline.selection_stats) =
  Record.Pipeline.
    {
      sel_trees = a.sel_trees + b.sel_trees;
      sel_variants = a.sel_variants + b.sel_variants;
      sel_variants_pruned = a.sel_variants_pruned + b.sel_variants_pruned;
      sel_variant_dedup = a.sel_variant_dedup + b.sel_variant_dedup;
      sel_variant_nodes = a.sel_variant_nodes + b.sel_variant_nodes;
      sel_nodes_labelled = a.sel_nodes_labelled + b.sel_nodes_labelled;
      sel_memo_hits = a.sel_memo_hits + b.sel_memo_hits;
      sel_dag_cuts = a.sel_dag_cuts + b.sel_dag_cuts;
      sel_cross_tree_cse = a.sel_cross_tree_cse + b.sel_cross_tree_cse;
      (* Totals per shared matcher, not per-compilation deltas: combine
         with max rather than double-count. *)
      sel_states = max a.sel_states b.sel_states;
      sel_state_prunes = a.sel_state_prunes + b.sel_state_prunes;
      sel_table_build_ms = Float.max a.sel_table_build_ms b.sel_table_build_ms;
    }

type sweep_row = {
  eng : Burg.Matcher.engine;
  limit : int;
  cold_ms : float;  (* mean select-emit per pass, cleared matcher per pass *)
  warm_ms : float;  (* same, matcher label table kept across passes *)
  words : int;  (* summed code size over the kernels *)
  per_kernel : (string * int) list;  (* kernel name -> words *)
  sel : Record.Pipeline.selection_stats;  (* one cold pass, summed *)
}

let selection_sweep ~reps () =
  section "Selection sweep: variant limit vs select-emit cost (tic25, Table 1)";
  let machine = Target.Tic25.machine in
  let kernels =
    List.map
      (fun (k : Dspstone.Kernels.t) ->
        (k.Dspstone.Kernels.name, Dspstone.Kernels.prog k))
      Dspstone.Kernels.all
  in
  let measure eng limit =
    let options =
      Record.Options.with_matcher eng
        { Record.Options.record_ with Record.Options.variant_limit = limit }
    in
    let pass matcher =
      List.fold_left
        (fun (ms, words, per, sel) (name, prog) ->
          let c = Record.Pipeline.compile ~options ~matcher machine prog in
          let w = Record.Pipeline.words c in
          ( ms +. select_emit_ms c,
            words + w,
            (name, w) :: per,
            add_sel sel c.Record.Pipeline.selection ))
        (0.0, 0, [], Record.Pipeline.no_selection)
        kernels
    in
    let matcher =
      Burg.Matcher.create ~engine:eng machine.Target.Machine.grammar
    in
    (* Untimed warm-up: populates the process-global hash-cons table, which
       the pre-hashcons baseline had no analogue of, so cold passes measure
       matcher labelling, not tree interning.  Cold means cold labelling:
       the per-node memo (DP table or automaton slot table) is dropped
       before each pass.  The table engine's states and transitions
       survive — that is the point of the offline automaton, and their
       one-time construction cost is reported as table_build_ms. *)
    let _, words, per, sel = pass matcher in
    let mean times =
      Array.fold_left ( +. ) 0.0 times /. float (Array.length times)
    in
    let cold_ms =
      mean
        (Array.init reps (fun _ ->
             Burg.Matcher.clear matcher;
             let ms, _, _, _ = pass matcher in
             ms))
    in
    ignore (pass matcher);
    let warm_ms =
      mean
        (Array.init reps (fun _ ->
             let ms, _, _, _ = pass matcher in
             ms))
    in
    { eng; limit; cold_ms; warm_ms; words; per_kernel = List.rev per; sel }
  in
  let limits = [ 64; 128; 256; 512 ] in
  let rows = List.map (measure Burg.Matcher.Table) limits in
  let dp_rows = List.map (measure Burg.Matcher.Dp) limits in
  (* Selection-mode axis: per-kernel code size and the DAG counters under
     each Options.selection_mode at the default variant limit — the dag
     row must never exceed tree anywhere, and must beat it somewhere (the
     cross-tree reuse Table 1's hand assembly exploits). *)
  let measure_mode mode =
    let options = Record.Options.with_selection_mode mode Record.Options.record_ in
    let per_kernel, words, sel =
      List.fold_left
        (fun (per, words, sel) (k : Dspstone.Kernels.t) ->
          let prog = Dspstone.Kernels.prog k in
          let c = Record.Pipeline.compile ~options machine prog in
          let w = Record.Pipeline.words c in
          ( (k.Dspstone.Kernels.name, w) :: per,
            words + w,
            add_sel sel c.Record.Pipeline.selection ))
        ([], 0, Record.Pipeline.no_selection)
        Dspstone.Kernels.all
    in
    (mode, List.rev per_kernel, words, sel)
  in
  let mode_rows =
    List.map (fun (_, mode) -> measure_mode mode) Record.Options.selection_modes
  in
  Format.printf "%-7s %-6s %10s %10s %7s %9s %8s %9s %10s %10s %7s %7s@."
    "engine" "limit" "cold ms" "warm ms" "words" "variants" "pruned"
    "var nodes" "labelled" "memo hits" "states" "sprune";
  List.iter
    (fun r ->
      Format.printf "%-7s %-6d %10.4f %10.4f %7d %9d %8d %9d %10d %10d %7d %7d@."
        (Burg.Matcher.engine_name r.eng)
        r.limit r.cold_ms r.warm_ms r.words r.sel.Record.Pipeline.sel_variants
        r.sel.Record.Pipeline.sel_variants_pruned
        r.sel.Record.Pipeline.sel_variant_nodes
        r.sel.Record.Pipeline.sel_nodes_labelled
        r.sel.Record.Pipeline.sel_memo_hits
        r.sel.Record.Pipeline.sel_states
        r.sel.Record.Pipeline.sel_state_prunes)
    (rows @ dp_rows);
  Format.printf
    "seed baseline (pre-hashcons, limit %d): %.3f ms select-emit per pass@."
    seed_baseline_limit seed_baseline_ms;
  (match List.find_opt (fun r -> r.limit = 512) rows with
  | Some r when r.cold_ms < seed_baseline_ms ->
    Format.printf
      "limit 512 with sharing is %.2fx the pre-hashcons limit-64 cost@."
      (r.cold_ms /. seed_baseline_ms)
  | Some _ | None -> ());
  (match
     ( List.find_opt (fun r -> r.limit = 512) rows,
       List.find_opt (fun r -> r.limit = 512) dp_rows )
   with
  | Some t, Some d when t.cold_ms > 0.0 ->
    Format.printf
      "limit 512: table cold labelling is %.2fx the DP engine (%.4f vs %.4f \
       ms; table automaton: %d states, built in %.2f ms)@."
      (d.cold_ms /. t.cold_ms) t.cold_ms d.cold_ms
      t.sel.Record.Pipeline.sel_states
      t.sel.Record.Pipeline.sel_table_build_ms
  | _ -> ());
  Format.printf "@.%-12s %7s %10s %10s@." "mode" "words" "dag cuts"
    "xtree cse";
  List.iter
    (fun (mode, _, words, sel) ->
      Format.printf "%-12s %7d %10d %10d@."
        (Record.Options.selection_mode_name mode)
        words sel.Record.Pipeline.sel_dag_cuts
        sel.Record.Pipeline.sel_cross_tree_cse)
    mode_rows;
  let row_json r =
    Driver.Json.Obj
      [
        ("matcher", Driver.Json.String (Burg.Matcher.engine_name r.eng));
        ("variant_limit", Driver.Json.Int r.limit);
        ("cold_select_ms", Driver.Json.Float r.cold_ms);
        ("warm_select_ms", Driver.Json.Float r.warm_ms);
        ("words", Driver.Json.Int r.words);
        ( "kernels",
          Driver.Json.Obj
            (List.map (fun (k, w) -> (k, Driver.Json.Int w)) r.per_kernel) );
        ("selection", Driver.Job.selection_to_json r.sel);
      ]
  in
  let mode_row_json (mode, per_kernel, words, sel) =
    Driver.Json.Obj
      [
        ( "mode",
          Driver.Json.String (Record.Options.selection_mode_name mode) );
        ("words", Driver.Json.Int words);
        ( "kernels",
          Driver.Json.Obj
            (List.map (fun (k, w) -> (k, Driver.Json.Int w)) per_kernel) );
        ("selection", Driver.Job.selection_to_json sel);
      ]
  in
  let doc =
    Driver.Json.Obj
      [
        ("table", Driver.Json.String "selection-sweep");
        ("machine", Driver.Json.String "tic25");
        ("kernels", Driver.Json.Int (List.length kernels));
        ("reps", Driver.Json.Int reps);
        ("rows", Driver.Json.List (List.map row_json (rows @ dp_rows)));
        ("modes", Driver.Json.List (List.map mode_row_json mode_rows));
        ( "seed_baseline",
          Driver.Json.Obj
            [
              ("variant_limit", Driver.Json.Int seed_baseline_limit);
              ("select_emit_ms", Driver.Json.Float seed_baseline_ms);
              ( "note",
                Driver.Json.String
                  "pre-hashcons seed, mean select-emit per Table-1 pass over \
                   50 reps, measured back-to-back with the post-change build \
                   (lower of two paired runs)" );
            ] );
      ]
  in
  let oc = open_out "BENCH_selection.json" in
  output_string oc (Driver.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "(rows written to BENCH_selection.json)@.@.";
  (rows, dp_rows, mode_rows)

(* Counter-based budget for CI (wall-clock is too noisy for shared runners):
   with the shared DP table, labelling work must grow sub-linearly in the
   total size of the variant space, and the memo must actually fire. *)
let assert_sharing (rows, dp_rows, mode_rows) =
  let fail = ref false in
  let check msg ok =
    Format.printf "%-64s %s@." msg (if ok then "OK" else "FAIL");
    if not ok then fail := true
  in
  let row limit = List.find (fun r -> r.limit = limit) rows in
  let dp_row limit = List.find (fun r -> r.limit = limit) dp_rows in
  let r256 = row 256 in
  let s = r256.sel in
  check "limit 256: shared label table fires (memo_hits > 0)"
    (s.Record.Pipeline.sel_memo_hits > 0);
  (* Sub-linearity is a property of the shared memo over the FULL variant
     space, so it is checked on the dp rows: the table engine's state
     pruning shrinks variant_nodes (the denominator) by design. *)
  let d256 = dp_row 256 in
  check "limit 256: labelling sub-linear (nodes_labelled * 4 <= variant_nodes)"
    (d256.sel.Record.Pipeline.sel_nodes_labelled * 4
    <= d256.sel.Record.Pipeline.sel_variant_nodes);
  let r64 = row 64 and r512 = row 512 in
  check "variant sets prefix-stable (variants at 512 >= at 64)"
    (r512.sel.Record.Pipeline.sel_variants
    >= r64.sel.Record.Pipeline.sel_variants);
  check "covers never degrade (words at 512 <= words at 64)"
    (r512.words <= r64.words);
  (* BURS-engine gates: the table engine must actually build an automaton,
     its state-equivalence prune must fire on the Table-1 closure, and —
     the load-bearing property — dp and table must agree on every kernel's
     code size at every limit (covers are byte-identical by construction;
     words identity is the cheap observable proxy). *)
  check "table: automaton built (states > 0 at limit 512)"
    (r512.sel.Record.Pipeline.sel_states > 0);
  check "table: state-equivalence prune fires (state_prunes > 0 at 512)"
    (r512.sel.Record.Pipeline.sel_state_prunes > 0);
  check "table: pruning shrinks ranked variant space (variant_nodes < dp)"
    (r512.sel.Record.Pipeline.sel_variant_nodes
    < (dp_row 512).sel.Record.Pipeline.sel_variant_nodes);
  List.iter2
    (fun t d ->
      check
        (Printf.sprintf "dp vs table: identical words per kernel (limit %d)"
           t.limit)
        (t.eng = Burg.Matcher.Table && d.eng = Burg.Matcher.Dp
        && t.limit = d.limit
        && t.per_kernel = d.per_kernel))
    rows dp_rows;
  (* Selection-mode gates: DAG covering must exploit cross-tree sharing on
     the Table-1 workload, never lose to tree covering on any kernel, and
     strictly beat it on at least one. *)
  let mode_row m =
    let _, per, words, sel = List.find (fun (m', _, _, _) -> m' = m) mode_rows in
    (per, words, sel)
  in
  let tree_per, tree_words, _ = mode_row Record.Options.Tree in
  let dag_per, dag_words, dag_sel = mode_row Record.Options.Dag in
  check "dag: cross-tree CSE fires on Table 1 (cross_tree_cse > 0)"
    (dag_sel.Record.Pipeline.sel_cross_tree_cse > 0);
  check "dag: no kernel regresses vs tree"
    (List.for_all2
       (fun (k, tw) (k', dw) -> k = k' && dw <= tw)
       tree_per dag_per);
  check "dag: at least one kernel strictly smaller than tree"
    (dag_words < tree_words);
  if !fail then begin
    Format.printf "selection sharing budget violated@.";
    exit 1
  end;
  Format.printf "@."

(* ---- Serve sweep: domain-pool throughput vs the fork scheduler ----------- *)

(* Streams the Table-1 job file through Pool.run_jobs at 1/2/4/8 domains
   and through the fork scheduler at the same widths, with the result
   cache disabled throughout so what's measured is compilation, not cache
   lookups.  "cold" resets the shared state the pool exists to amortize
   (intern table, per-target matcher DP tables) before every rep; "warm"
   keeps it.  Written as BENCH_serve.json. *)

let serve_reps = 5

let reset_shared_state () =
  Ir.Hashcons.clear ();
  List.iter
    (fun m -> Burg.Matcher.clear (Driver.Registry.matcher_for m))
    (Driver.Registry.machines ())

let jobs_per_sec n_jobs f =
  let t0 = Unix.gettimeofday () in
  f ();
  let dt = Unix.gettimeofday () -. t0 in
  if dt <= 0.0 then 0.0 else float n_jobs /. dt

let mean xs = List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

type serve_row = {
  sv_domains : int;
  sv_cold : float;  (* jobs/sec, shared state reset before each rep *)
  sv_warm : float;  (* jobs/sec, shared state kept across reps *)
  sv_fork : float;  (* jobs/sec, fork scheduler at the same width *)
}

let serve_sweep () =
  section "Serve sweep: domain-pool throughput vs the fork scheduler";
  let jobs_file = "bench/jobs_table1.json" in
  let read_file path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    s
  in
  let jobs =
    match
      Result.bind (Driver.Json.of_string (read_file jobs_file))
        Driver.Protocol.jobs_of_json
    with
    | Ok jobs -> jobs
    | Error msg ->
      Format.printf "cannot load %s: %s@." jobs_file msg;
      exit 1
  in
  let n_jobs = List.length jobs in
  let widths = [ 1; 2; 4; 8 ] in
  (* The runtime refuses Unix.fork once any domain has ever been spawned,
     so every fork-scheduler baseline is measured before the first pool. *)
  let fork_rates =
    List.map
      (fun d ->
        ( d,
          mean
            (List.init serve_reps (fun _ ->
                 jobs_per_sec n_jobs (fun () ->
                     ignore (Driver.Batch.run ~jobs:d jobs)))) ))
      widths
  in
  let measure d =
    (* The pool is long-lived in the daemon, so spawn/join stays outside
       the timed region; only run_jobs dispatch+compilation is measured. *)
    let pool = Driver.Pool.create ~domains:d () in
    let timed_run () =
      jobs_per_sec n_jobs (fun () -> ignore (Driver.Pool.run_jobs pool jobs))
    in
    let cold =
      mean
        (List.init serve_reps (fun _ ->
             reset_shared_state ();
             timed_run ()))
    in
    ignore (timed_run ());
    let warm = mean (List.init serve_reps (fun _ -> timed_run ())) in
    Driver.Pool.shutdown pool;
    { sv_domains = d; sv_cold = cold; sv_warm = warm;
      sv_fork = List.assoc d fork_rates }
  in
  let rows = List.map measure widths in
  Format.printf "%-8s %14s %14s %14s@." "domains" "cold jobs/s" "warm jobs/s"
    "fork jobs/s";
  List.iter
    (fun r ->
      Format.printf "%-8d %14.1f %14.1f %14.1f@." r.sv_domains r.sv_cold
        r.sv_warm r.sv_fork)
    rows;
  let rate_at d = (List.find (fun r -> r.sv_domains = d) rows).sv_cold in
  let speedup = if rate_at 1 > 0.0 then rate_at 4 /. rate_at 1 else 0.0 in
  let host_cores = Domain.recommended_domain_count () in
  Format.printf
    "cold speedup at 4 domains vs 1: %.2fx (host reports %d core%s)@."
    speedup host_cores (if host_cores = 1 then "" else "s");
  let row_json r =
    Driver.Json.Obj
      [
        ("domains", Driver.Json.Int r.sv_domains);
        ("cold_jobs_per_sec", Driver.Json.Float r.sv_cold);
        ("warm_jobs_per_sec", Driver.Json.Float r.sv_warm);
        ("fork_jobs_per_sec", Driver.Json.Float r.sv_fork);
      ]
  in
  let doc =
    Driver.Json.Obj
      [
        ("table", Driver.Json.String "serve-sweep");
        ("jobs_file", Driver.Json.String jobs_file);
        ("jobs", Driver.Json.Int n_jobs);
        ("reps", Driver.Json.Int serve_reps);
        ("host_cores", Driver.Json.Int host_cores);
        ("cache", Driver.Json.String "disabled");
        ("rows", Driver.Json.List (List.map row_json rows));
        ("cold_speedup_4_vs_1", Driver.Json.Float speedup);
        ( "note",
          Driver.Json.String
            "cold resets the intern table and every matcher DP table before \
             each rep; warm keeps them. The result cache is disabled \
             throughout, so rates measure compilation. Scaling is bounded by \
             host_cores: on a single-core host all widths serialize and the \
             4-vs-1 ratio stays near 1." );
      ]
  in
  let oc = open_out "BENCH_serve.json" in
  output_string oc (Driver.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "(rows written to BENCH_serve.json)@.@."

(* ---- DSE sweep: architecture farm through the cache ---------------------- *)

(* Samples a seeded slice of the ASIP parameter cube, runs a three-kernel
   workload against every sample cold and then warm against the same
   memory-tier cache, and writes BENCH_dse.json — the volatile variant of
   the record-dse-1 document (cache hit rates and host_cores included),
   unlike `record dse` whose file output is the byte-stable one. *)

let dse_sweep () =
  section "DSE sweep: seeded architecture farm through the compile cache";
  let cache = Driver.Cache.create ~memory_slots:4096 () in
  let config =
    {
      Dse.Sweep.seed = 42;
      samples = 64;
      kernels = [ "fir"; "dot_product"; "iir_biquad_one_section" ];
      domains = 1;
      cache = Some cache;
      selection = Record.Options.Tree;
      matcher = Burg.Matcher.Table;
    }
  in
  let cold = Dse.Sweep.run config in
  let warm = Dse.Sweep.run config in
  Format.printf "%a" Dse.Sweep.pp_summary cold;
  Format.printf
    "warm rerun: %d completed, %d cache hits (%.0f%% hit rate)@."
    warm.Dse.Sweep.completed warm.Dse.Sweep.hits
    (100.0 *. Dse.Sweep.hit_rate warm);
  let doc =
    match Dse.Sweep.to_json ~deterministic:false warm with
    | Driver.Json.Obj fields ->
      Driver.Json.Obj
        (fields
        @ [
            ( "cold_hit_rate",
              Driver.Json.Float (Dse.Sweep.hit_rate cold) );
            ( "warm_hit_rate",
              Driver.Json.Float (Dse.Sweep.hit_rate warm) );
          ])
    | doc -> doc
  in
  let oc = open_out "BENCH_dse.json" in
  output_string oc (Driver.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  if Dse.Sweep.hit_rate warm < 0.9 then begin
    Format.printf "FAIL: warm hit rate below 0.9@.";
    exit 1
  end;
  if cold.Dse.Sweep.front = [] then begin
    Format.printf "FAIL: empty Pareto front@.";
    exit 1
  end;
  Format.printf "(document written to BENCH_dse.json)@.@."

(* ---- Sim sweep: compiled vs interpretive engine throughput --------------- *)

(* Instructions/second for both simulator engines, per Table-1 kernel
   (RECORD-compiled on tic25) and over a seeded fuzz corpus, written as
   BENCH_sim.json.  The compiled engine is measured in steady state (one
   [Sim.Compile.prepare], many runs — the fuzz fleet's and DSE's usage
   pattern) and one-shot (translate + run, what a single [Sim.run] pays);
   translation cost is reported separately.  Speedup is a single-core
   ratio, so the number is meaningful on the 1-core CI box too. *)

let time_rate f =
  (* doubling batches until a batch takes >= 80ms, then the best of three
     such batches; the fastest batch is the least scheduler-disturbed one,
     so the rate is stable on a noisy shared box.  Returns calls/second. *)
  let batch reps =
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      f ()
    done;
    Unix.gettimeofday () -. t0
  in
  let rec calibrate reps =
    let dt = batch reps in
    if dt >= 0.08 then (reps, dt) else calibrate (reps * 2)
  in
  let reps, dt0 = calibrate 1 in
  let dt = min dt0 (min (batch reps) (batch reps)) in
  float_of_int reps /. dt

let dynamic_instrs asm =
  List.fold_left (fun acc (_, mult) -> acc + mult) 0
    (Target.Asm.flatten_counts asm)

let sim_sweep () =
  section "Sim sweep: compiled vs interpretive engine throughput";
  let machine = Target.Tic25.machine in
  let width = machine.Target.Machine.word_bits in
  Format.printf "%-26s %12s %12s %12s %8s@." "kernel" "interp i/s"
    "compiled i/s" "oneshot i/s" "speedup";
  let kernel_rows =
    List.map
      (fun (k : Dspstone.Kernels.t) ->
        let c =
          Record.Pipeline.compile ~options:Record.Options.record_ machine
            (Dspstone.Kernels.prog k)
        in
        let image =
          k.inputs
          @ List.map (fun (n, v) -> (n, [| v |])) c.Record.Pipeline.pool
        in
        let asm = c.Record.Pipeline.asm and layout = c.Record.Pipeline.layout in
        let dyn = dynamic_instrs asm in
        let interp_rate =
          time_rate (fun () ->
              ignore
                (Sim.run ~width ~engine:Sim.Interp machine ~layout
                   ~inputs:image asm))
        in
        let oneshot_rate =
          time_rate (fun () ->
              ignore
                (Sim.run ~width ~engine:Sim.Compiled machine ~layout
                   ~inputs:image asm))
        in
        let plan = Sim.Compile.prepare ~width machine ~layout asm in
        let compiled_rate =
          time_rate (fun () -> ignore (Sim.Compile.run plan ~inputs:image))
        in
        let prepare_ms =
          1000.0
          /. time_rate (fun () ->
                 ignore (Sim.Compile.prepare ~width machine ~layout asm))
        in
        let fdyn = float_of_int dyn in
        let interp_ips = interp_rate *. fdyn in
        let compiled_ips = compiled_rate *. fdyn in
        let oneshot_ips = oneshot_rate *. fdyn in
        let speedup = compiled_ips /. interp_ips in
        Format.printf "%-26s %12.3e %12.3e %12.3e %7.1fx@." k.name interp_ips
          compiled_ips oneshot_ips speedup;
        Driver.Json.Obj
          [
            ("kernel", Driver.Json.String k.name);
            ("dynamic_instrs", Driver.Json.Int dyn);
            ("interp_ips", Driver.Json.Float interp_ips);
            ("compiled_ips", Driver.Json.Float compiled_ips);
            ("compiled_oneshot_ips", Driver.Json.Float oneshot_ips);
            ("prepare_ms", Driver.Json.Float prepare_ms);
            ("speedup", Driver.Json.Float speedup);
          ])
      Dspstone.Kernels.all
  in
  (* The fuzz corpus: the same 500 seeded cases the differential suite
     checks, rotated over all four bundled machines.  Every compilable
     case's plan is translated once, then the whole corpus is swept per
     batch. *)
  let corpus_machines =
    [|
      Target.Tic25.machine;
      Target.Dsp56.machine;
      Target.Risc32.machine;
      Target.Asip.machine Target.Asip.default;
    |]
  in
  let cases =
    Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 6) ~seed:42 ~count:500 ()
  in
  let corpus =
    List.filter_map
      (fun (case : Fuzz.Gen.case) ->
        let m =
          corpus_machines.(case.Fuzz.Gen.index mod Array.length corpus_machines)
        in
        match
          Record.Pipeline.compile ~options:Record.Options.record_ m
            case.Fuzz.Gen.prog
        with
        | exception Record.Pipeline.Error _ -> None
        | c ->
          let image =
            case.Fuzz.Gen.inputs
            @ List.map (fun (n, v) -> (n, [| v |])) c.Record.Pipeline.pool
          in
          Some (m, c.Record.Pipeline.asm, c.Record.Pipeline.layout, image))
      cases
  in
  let corpus_dyn =
    List.fold_left (fun acc (_, asm, _, _) -> acc + dynamic_instrs asm) 0 corpus
  in
  let interp_sweeps =
    time_rate (fun () ->
        List.iter
          (fun ((m : Target.Machine.t), asm, layout, image) ->
            ignore
              (Sim.run ~width:m.word_bits ~engine:Sim.Interp m ~layout
                 ~inputs:image asm))
          corpus)
  in
  let plans =
    List.map
      (fun ((m : Target.Machine.t), asm, layout, image) ->
        (Sim.Compile.prepare ~width:m.word_bits m ~layout asm, image))
      corpus
  in
  let compiled_sweeps =
    time_rate (fun () ->
        List.iter
          (fun (plan, image) -> ignore (Sim.Compile.run plan ~inputs:image))
          plans)
  in
  let fdyn = float_of_int corpus_dyn in
  let interp_ips = interp_sweeps *. fdyn in
  let compiled_ips = compiled_sweeps *. fdyn in
  let speedup = compiled_ips /. interp_ips in
  Format.printf
    "fuzz corpus: %d cases, %d dynamic instrs; interp %.3e i/s, compiled \
     %.3e i/s, speedup %.1fx@."
    (List.length corpus) corpus_dyn interp_ips compiled_ips speedup;
  let doc =
    Driver.Json.Obj
      [
        ("table", Driver.Json.String "sim-sweep");
        ("machine", Driver.Json.String machine.Target.Machine.name);
        ("kernels", Driver.Json.List kernel_rows);
        ( "fuzz_corpus",
          Driver.Json.Obj
            [
              ( "machines",
                Driver.Json.List
                  (Array.to_list corpus_machines
                  |> List.map (fun (m : Target.Machine.t) ->
                         Driver.Json.String m.Target.Machine.name)) );
              ("cases", Driver.Json.Int (List.length corpus));
              ("dynamic_instrs", Driver.Json.Int corpus_dyn);
              ("interp_ips", Driver.Json.Float interp_ips);
              ("compiled_ips", Driver.Json.Float compiled_ips);
              ("speedup", Driver.Json.Float speedup);
            ] );
      ]
  in
  let oc = open_out "BENCH_sim.json" in
  output_string oc (Driver.Json.to_string ~indent:true doc);
  output_char oc '\n';
  close_out oc;
  Format.printf "(document written to BENCH_sim.json)@.@."

let selftest_report () =
  section "§4.5: self-test program generation and fault coverage";
  List.iter
    (fun net ->
      let suite = Selftest.generate net in
      let results = Selftest.run suite in
      let pass = List.length (List.filter snd results) in
      let cov = Selftest.fault_coverage suite in
      Format.printf
        "%-15s %d/%d transfer tests pass, %d untestable; stuck-at coverage \
         %d/%d@."
        net.Rtl.Netlist.name pass (List.length results)
        (List.length suite.Selftest.untestable)
        cov.Selftest.detected cov.Selftest.faults)
    [ Rtl.Samples.acc16; Rtl.Samples.acc16_dualreg ];
  Format.printf "@."

(* ---- Bechamel timing benchmarks ------------------------------------------ *)

let timing () =
  section "Timing (Bechamel): compiler phases";
  let open Bechamel in
  let open Toolkit in
  let tic25 = Target.Tic25.machine in
  let fir = Dspstone.Kernels.prog (Dspstone.Kernels.find "fir") in
  let complex_update_tree =
    Ir.Tree.((var "cr" + (var "ar" * var "br")) - (var "ai" * var "bi"))
  in
  let tests =
    [
      Test.make ~name:"matcher: label+cover (cold)"
        (Staged.stage (fun () ->
             let m = Burg.Matcher.create tic25.Target.Machine.grammar in
             ignore (Burg.Matcher.best m complex_update_tree)));
      Test.make ~name:"variants: generate + select best"
        (Staged.stage
           (let m = Burg.Matcher.create tic25.Target.Machine.grammar in
            fun () ->
              let vs = Ir.Algebra.variants complex_update_tree in
              ignore (Burg.Matcher.best_of_variants m vs)));
      Test.make ~name:"pipeline: compile fir (tic25)"
        (Staged.stage (fun () -> ignore (Record.Pipeline.compile tic25 fir)));
      Test.make ~name:"pipeline: compile fir (conventional)"
        (Staged.stage (fun () ->
             ignore
               (Record.Pipeline.compile ~options:Record.Options.conventional
                  tic25 fir)));
      Test.make ~name:"ISE: extract acc16 instruction set"
        (Staged.stage (fun () -> ignore (Ise.Extract.run Rtl.Samples.acc16)));
      Test.make ~name:"ISE: generate full compiler"
        (Staged.stage (fun () -> ignore (Ise.Gen.machine Rtl.Samples.acc16)));
      Test.make ~name:"selftest: generate acc16 suite"
        (Staged.stage (fun () -> ignore (Selftest.generate Rtl.Samples.acc16)));
      Test.make ~name:"sim: run compiled fir"
        (Staged.stage
           (let c = Record.Pipeline.compile tic25 fir in
            let k = Dspstone.Kernels.find "fir" in
            fun () ->
              ignore
                (Record.Pipeline.execute c ~inputs:k.Dspstone.Kernels.inputs)));
    ]
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw =
    Benchmark.all cfg instances (Test.make_grouped ~name:"record" tests)
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  List.iter
    (fun (name, ols) ->
      match Analyze.OLS.estimates ols with
      | Some [ ns ] when ns >= 1_000_000.0 ->
        Format.printf "%-50s %10.2f ms/run@." name (ns /. 1_000_000.0)
      | Some [ ns ] when ns >= 1_000.0 ->
        Format.printf "%-50s %10.2f us/run@." name (ns /. 1_000.0)
      | Some [ ns ] -> Format.printf "%-50s %10.1f ns/run@." name ns
      | Some _ | None -> Format.printf "%-50s (no estimate)@." name)
    (List.sort compare rows);
  Format.printf "@."

let () =
  (* --smoke: the assertion-bearing sections only (compile/validate every
     kernel, check static timing, classify the cube), skipping the sweeps
     and the Bechamel wall-clock measurements; quick enough for CI.
     --selection-sweep: only the variant-limit sweep (writes
     BENCH_selection.json); with --assert-sharing the counter-based
     sharing budget is enforced (exit 1 on violation).
     --serve-sweep: only the domain-pool throughput sweep (writes
     BENCH_serve.json).
     --dse-sweep: only the seeded architecture-farm sweep (writes
     BENCH_dse.json; exit 1 on a cold warm-rerun hit rate below 0.9 or an
     empty Pareto front).
     --sim-sweep: only the simulator-engine throughput sweep (writes
     BENCH_sim.json; speedup reported, never gated). *)
  let flag name = Array.exists (String.equal name) Sys.argv in
  (* --reps N (or --reps=N): timing repetitions per selection-sweep row,
     recorded in BENCH_selection.json; default 50.  CI uses a smaller
     count — the gates are counter-based, so fewer reps only widens the
     wall-clock noise, never the assertions. *)
  let reps =
    let parse s = match int_of_string_opt s with Some n when n > 0 -> Some n | _ -> None in
    let rec scan i =
      if i >= Array.length Sys.argv then 50
      else
        let a = Sys.argv.(i) in
        let prefix = "--reps=" in
        if a = "--reps" && i + 1 < Array.length Sys.argv then
          match parse Sys.argv.(i + 1) with
          | Some n -> n
          | None -> scan (i + 1)
        else if String.length a > String.length prefix
                && String.sub a 0 (String.length prefix) = prefix
        then
          match
            parse
              (String.sub a (String.length prefix)
                 (String.length a - String.length prefix))
          with
          | Some n -> n
          | None -> scan (i + 1)
        else scan (i + 1)
    in
    scan 1
  in
  let smoke = flag "--smoke" in
  let sweep_only = flag "--selection-sweep" in
  let serve_only = flag "--serve-sweep" in
  let dse_only = flag "--dse-sweep" in
  let sim_only = flag "--sim-sweep" in
  let sharing = flag "--assert-sharing" in
  Format.printf
    "RECORD reproduction benchmarks (Marwedel, 'Code Generation for Core \
     Processors', DAC 1997)@.";
  if serve_only then serve_sweep ()
  else if dse_only then dse_sweep ()
  else if sim_only then sim_sweep ()
  else if sweep_only then begin
    let rows = selection_sweep ~reps () in
    if sharing then assert_sharing rows
  end
  else begin
    let rows = table1 () in
    overhead_claim rows;
    extended_kernels ();
    static_timing ();
    fig1 ();
    if not smoke then begin
      fig2_fig3 ();
      fig45 ();
      ablation_selection ();
      ablation_unroll ();
      ablation_modes ();
      ablation_compaction ();
      ablation_offset ();
      asip_sweep ();
      n_sweep ();
      let sweep_rows = selection_sweep ~reps () in
      if sharing then assert_sharing sweep_rows;
      serve_sweep ();
      dse_sweep ();
      sim_sweep ();
      selftest_report ();
      timing ()
    end
  end
