(* Prints one digest per variant-search configuration: rules (the paper's
   default set, or that plus [Fold]) x limit (2, 64, 512) x prune key
   (none, or one bundled machine's automaton state).  Each digest covers
   every statement tree of the twelve DSPStone kernels and of the seed-42
   [sized 8] fuzz corpus: the variant list in order, as [Tree.to_string],
   and the four [Algebra.counters] of that tree's search.  The dune rule
   next to this file diffs the output against variants.golden, so a change
   to the rewrite order, the deduplication, the limit or the pruning fails
   [dune runtest]; after an intended change, [dune promote] rewrites it. *)

let trees =
  let of_prog p = List.map (fun (s : Ir.Prog.stmt) -> s.src) (Ir.Prog.stmts p) in
  List.concat_map
    (fun k -> of_prog (Dspstone.Kernels.prog k))
    (Dspstone.Kernels.all @ Dspstone.Kernels.extended)
  @ List.concat_map
      (fun (c : Fuzz.Gen.case) -> of_prog c.prog)
      (Fuzz.Gen.cases ~config:(Fuzz.Gen.sized 8) ~seed:42 ~count:200 ())

let rule_sets =
  [
    ("default", Ir.Algebra.default_rules);
    ("default+fold", Ir.Algebra.default_rules @ [ Ir.Algebra.Fold ]);
  ]

let limits = [ 2; 64; 512 ]

let prune_keys =
  ("none", None)
  :: List.map
       (fun (m : Target.Machine.t) ->
         (m.name, Some (Burg.Matcher.state_key (Driver.Registry.matcher_for m))))
       (Driver.Registry.machines ())

(* The digest is chained per tree, so no buffer holds the whole corpus's
   variants at once. *)
let digest rules limit prune_key =
  let buf = Buffer.create 4096 in
  let md5 = ref (Digest.string "") in
  let variants = ref 0 in
  List.iter
    (fun t ->
      let c = Ir.Algebra.fresh_counters () in
      let vs = Ir.Algebra.variants ~rules ~limit ~counters:c ?prune_key t in
      List.iter
        (fun v ->
          incr variants;
          Buffer.add_string buf (Ir.Tree.to_string v);
          Buffer.add_char buf '\n')
        vs;
      Printf.bprintf buf "explored=%d pruned=%d dedup=%d state_prunes=%d\n"
        c.explored c.pruned c.dedup_hits c.state_prunes;
      md5 := Digest.string (!md5 ^ Buffer.contents buf);
      Buffer.clear buf)
    trees;
  (!variants, Digest.to_hex !md5)

let () =
  Printf.printf "# %d statement trees\n" (List.length trees);
  print_string "# rules        limit prune   variants md5\n";
  List.iter
    (fun (rname, rules) ->
      List.iter
        (fun limit ->
          List.iter
            (fun (pname, prune_key) ->
              let n, md5 = digest rules limit prune_key in
              Printf.printf "%-14s %5d %-7s %8d %s\n" rname limit pname n md5)
            prune_keys)
        limits)
    rule_sets
