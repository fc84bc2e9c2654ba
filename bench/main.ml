(* Regenerates every table and figure of the paper (see DESIGN.md §2 for the
   experiment index), the §3.1 overhead claim and the ablation studies of
   the §3.3 optimizations.  The output is deterministic: it reports words,
   cycles and counts, never wall-clock.  Compiler and simulator speed are
   measured by perfbench/ (see perfbench/README.md). *)

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
  let variants_off = { opts with Record.Options.variant_limit = 1 } in
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

let () =
  (* The bench takes no arguments; any argument is rejected, so a
     mistyped flag cannot silently run the whole bench. *)
  (match List.tl (Array.to_list Sys.argv) with
  | [] -> ()
  | args ->
    Printf.eprintf "bench: unknown argument%s %s (the bench takes none)\n"
      (if List.length args = 1 then "" else "s")
      (String.concat " " args);
    exit 2);
  Format.printf
    "RECORD reproduction benchmarks (Marwedel, 'Code Generation for Core \
     Processors', DAC 1997)@.";
  let rows = table1 () in
  overhead_claim rows;
  extended_kernels ();
  static_timing ();
  fig1 ();
  fig2_fig3 ();
  fig45 ();
  ablation_selection ();
  ablation_unroll ();
  ablation_modes ();
  ablation_compaction ();
  ablation_offset ();
  asip_sweep ();
  n_sweep ();
  selftest_report ()
