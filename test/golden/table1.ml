(* Prints the paper's pinned results: one row per DSPStone kernel (the ten
   of Table 1 plus lms and matrix_1x3) x bundled machine x option set x
   selection mode, then the digest of the fixed fuzz corpus's report.  The
   dune rule next to this file diffs the output against table1.golden, so
   a change that moves any number fails [dune runtest]; after an intended
   change, [dune promote] rewrites the golden file. *)

let option_sets =
  [ ("record", Record.Options.record_); ("conventional", Record.Options.conventional) ]

let modes = [ Record.Options.Tree; Record.Options.Dag ]

let row (k : Dspstone.Kernels.t) prog machine (label, options) mode =
  let options = Record.Options.with_selection_mode mode options in
  (* The registry's long-lived matcher keeps its labellings warm across
     every row of one machine. *)
  let matcher = Driver.Registry.matcher_for machine in
  let result =
    match Record.Pipeline.compile ~options ~matcher machine prog with
    | exception Record.Pipeline.Error _ -> "unsupported"
    | c ->
      let _, cycles = Record.Pipeline.execute c ~inputs:k.inputs in
      let listing = Format.asprintf "%a" Target.Asm.pp c.Record.Pipeline.asm in
      Printf.sprintf "%5d %7d %s" (Record.Pipeline.words c) cycles
        (Digest.to_hex (Digest.string listing))
  in
  Printf.printf "%-28s %-7s %-12s %-4s %s\n" k.name
    machine.Target.Machine.name label
    (Record.Options.selection_mode_name mode)
    result

(* The report [record fuzz --seed 42 --count 200 --max-size 8] prints. *)
let fuzz_digest () =
  let combos =
    Fuzz.Oracle.combos_for ~machines:(Driver.Registry.machines ())
      ~conventional:true ()
  in
  let report =
    Fuzz.Oracle.run ~config:(Fuzz.Gen.sized 8) ~combos ~seed:42 ~count:200 ()
  in
  Digest.to_hex
    (Digest.string (Format.asprintf "%a@." Fuzz.Oracle.pp_report report))

let () =
  print_string
    "# kernel                     machine options      mode words  cycles \
     asm-md5\n";
  List.iter
    (fun (k : Dspstone.Kernels.t) ->
      let prog = Dspstone.Kernels.prog k in
      List.iter
        (fun machine ->
          List.iter
            (fun options -> List.iter (row k prog machine options) modes)
            option_sets)
        (Driver.Registry.machines ()))
    (Dspstone.Kernels.all @ Dspstone.Kernels.extended);
  Printf.printf "fuzz --seed 42 --count 200 --max-size 8: %s\n"
    (fuzz_digest ())
