type row = {
  kernel : string;
  hand_words : int;
  conv_words : int;
  record_words : int;
  hand_cycles : int;
  conv_cycles : int;
  record_cycles : int;
}

let pct num den = int_of_float (Float.round (100.0 *. float num /. float den))

let conv_pct r = pct r.conv_words r.hand_words
let record_pct r = pct r.record_words r.hand_words

let machine = Target.Tic25.machine

let run_hand ?engine (k : Kernels.t) =
  let asm = Handasm.find k.name in
  let layout = Handasm.layout_for k in
  Sim.simulate ~width:machine.Target.Machine.word_bits ?engine machine ~layout
    ~inputs:k.inputs asm (Kernels.prog k)

let same_outputs expected got =
  List.for_all
    (fun (name, values) ->
      match List.assoc_opt name got with
      | Some actual -> actual = values
      | None -> false)
    expected

let validate (k : Kernels.t) =
  let prog = Kernels.prog k in
  let expected = Ir.Eval.run_with_inputs prog k.inputs in
  let check label got =
    if same_outputs expected got then Ok ()
    else Error (Printf.sprintf "%s: %s output differs from reference" k.name label)
  in
  let ( let* ) = Result.bind in
  let* () = check "hand assembly" (fst (run_hand k)) in
  let compile_and_run options =
    let c = Record.Pipeline.compile ~options machine prog in
    fst (Record.Pipeline.execute c ~inputs:k.inputs)
  in
  let* () = check "RECORD" (compile_and_run Record.Options.record_) in
  check "conventional compiler" (compile_and_run Record.Options.conventional)

let measure (k : Kernels.t) =
  let prog = Kernels.prog k in
  let hand_asm = Handasm.find k.name in
  let _, hand_cycles = run_hand k in
  let compile options =
    let c = Record.Pipeline.compile ~options machine prog in
    let _, cycles = Record.Pipeline.execute c ~inputs:k.inputs in
    (Record.Pipeline.words c, cycles)
  in
  let record_words, record_cycles = compile Record.Options.record_ in
  let conv_words, conv_cycles = compile Record.Options.conventional in
  {
    kernel = k.name;
    hand_words = Target.Asm.words hand_asm;
    conv_words;
    record_words;
    hand_cycles;
    conv_cycles;
    record_cycles;
  }

let table1 () = List.map measure Kernels.all

let extended () = List.map measure Kernels.extended

let pp_table1 ppf rows =
  let open Format in
  fprintf ppf "@[<v>";
  fprintf ppf "%-26s %10s %10s  (words: hand / conv / RECORD)@," "Program"
    "TI-C-like" "RECORD";
  List.iter
    (fun r ->
      fprintf ppf "%-26s %9d%% %9d%%  (%d / %d / %d)@," r.kernel (conv_pct r)
        (record_pct r) r.hand_words r.conv_words r.record_words)
    rows;
  fprintf ppf "@]"
