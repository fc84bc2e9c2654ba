(* Prints what the machines no other golden file covers compile to: the
   compilers generated from the three sample RT netlists ([Ise.Gen]), the
   first 32 ASIPs of the DSE sample sequence of seed 7, and the textual
   description named on the command line ([Mdl.load], the bundled
   examples/machines/simple16.mdl).  Per machine, one digest of its
   rendered grammar and register file (what [record rules] prints); then,
   per DSPStone kernel under the record, conventional and dag option sets,
   the words, simulated cycles and listing digest, or the error message.
   The four bundled machines print their rules digest only: table1.golden
   pins what they compile to.  The dune rule next to this file diffs the
   output against machines.golden, so a change to what any of these
   descriptions emits fails [dune runtest]; after an intended change,
   [dune promote] rewrites it. *)

let option_sets =
  [
    ("record", Record.Options.record_);
    ("conventional", Record.Options.conventional);
    ( "dag",
      Record.Options.with_selection_mode Record.Options.Dag
        Record.Options.record_ );
  ]

let machines =
  List.map
    (fun net -> (net.Rtl.Netlist.name, fun () -> Ise.Gen.machine net))
    [ Rtl.Samples.acc16; Rtl.Samples.acc16_dualreg; Rtl.Samples.mac16 ]
  @ List.map
      (fun (p : Dse.Sample.point) ->
        (p.name, fun () -> Target.Asip.machine ~name:p.name p.params))
      (Dse.Sample.points ~seed:7 ~count:32)
  @ [
      ( "simple16.mdl",
        fun () ->
          Mdl.load (In_channel.with_open_bin Sys.argv.(1) In_channel.input_all)
      );
    ]

let md5 s = Digest.to_hex (Digest.string s)

(* A compile that cannot be done prints its message, whether the pipeline
   or the generated machine reported it. *)
let row name machine matcher (k : Dspstone.Kernels.t) (label, options) =
  let result =
    match
      Record.Pipeline.compile ~options ~matcher machine
        (Dspstone.Kernels.prog k)
    with
    | exception (Record.Pipeline.Error msg | Ise.Gen.Unsupported msg) ->
      "error: " ^ msg
    | c ->
      let _, cycles = Record.Pipeline.execute c ~inputs:k.inputs in
      Printf.sprintf "%5d %7d %s" (Record.Pipeline.words c) cycles
        (md5 (Target.Asm.to_string c.Record.Pipeline.asm))
  in
  Printf.printf "%-22s %-28s %-12s %s\n" name k.name label result

(* What [record rules] prints. *)
let rules_digest (machine : Target.Machine.t) =
  md5
    (Format.asprintf "%a@.@.register file:@.%a@." Burg.Grammar.pp
       machine.grammar Target.Regfile.pp machine.regfile)

let () =
  List.iter
    (fun (m : Target.Machine.t) ->
      Printf.printf "%-22s rules %s\n" m.name (rules_digest m))
    (Driver.Registry.machines ());
  List.iter
    (fun (name, make) ->
      match make () with
      | exception Ise.Gen.Unsupported msg ->
        Printf.printf "%-22s error: %s\n" name msg
      | (machine : Target.Machine.t) ->
        Printf.printf "%-22s rules %s\n" name (rules_digest machine);
        let matcher =
          Burg.Matcher.create ~engine:Record.Options.record_.matcher
            machine.grammar
        in
        List.iter
          (fun k -> List.iter (row name machine matcher k) option_sets)
          (Dspstone.Kernels.all @ Dspstone.Kernels.extended))
    machines
