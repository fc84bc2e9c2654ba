(* dsp-long: the developer's compile-and-check path on long-running
   kernels.  Each unit is one job: DFL text, lowered, compiled with the
   target's long-lived matcher (through [Driver.Service.compile] without a
   cache, as [record compile --check] does), simulated with the default
   engine, and compared with [Ir.Eval].  The looped DSPStone kernels are
   re-parameterised to seeded trip counts in the thousands, so the
   simulator's share of a unit is large and selection's is small. *)

let kernels =
  [ "dot_product"; "fir"; "convolution"; "n_real_updates"; "n_complex_updates" ]

(* Trip counts come from [strata] equal bands of [min_trips, max_trips),
   one job per band for every kernel and target, so a pool's total
   simulated work barely depends on its seed. *)
let min_trips = 1000
let max_trips = 4000
let strata = 5

(* Jobs per pool: every (kernel, target, band) once.  The loop runs the
   reference pool (the same for every seed; words, cycles and the
   compiled share are totals over it) and then cycles through the seed's
   pool.  Without a cache a repeated job costs what its first run did,
   once the matchers are warm. *)
let pool_size = List.length kernels * List.length Common.bundled_names * strata

type job = {
  label : string;
  target : string;
  text : string;  (** DFL source *)
  inputs : (string * int array) list;
  expected : (string * int array) list;
}

let with_trips (k : Dspstone.Kernels.t) n =
  let from = "param N = 16;" and src = k.Dspstone.Kernels.source in
  match Common.find_sub src from with
  | None -> failwith ("dsp-long: kernel without param N: " ^ k.Dspstone.Kernels.name)
  | Some i ->
    let rest = i + String.length from in
    String.sub src 0 i
    ^ Printf.sprintf "param N = %d;" n
    ^ String.sub src rest (String.length src - rest)

(* Input data in [-3, 3], redrawn until the exact-integer evaluation stays
   inside the target's word (the fuzz oracle's fixed-point contract). *)
let inputs_for st ~width (prog : Ir.Prog.t) =
  let draw () =
    List.filter_map
      (fun (d : Ir.Prog.decl) ->
        match d.Ir.Prog.storage with
        | Ir.Prog.Input ->
          Some
            ( d.Ir.Prog.name,
              Array.init d.Ir.Prog.size (fun _ -> Random.State.int st 7 - 3) )
        | Ir.Prog.Output | Ir.Prog.Temp -> None)
      prog.Ir.Prog.decls
  in
  let rec go attempts =
    let inputs = draw () in
    if Fuzz.Oracle.within_contract ~width prog inputs then inputs
    else if attempts = 0 then failwith "dsp-long: no input draw inside the contract"
    else go (attempts - 1)
  in
  go 100

let make_job st (kernel, target, band) =
  let k = Dspstone.Kernels.find kernel in
  let machine = Result.get_ok (Driver.Registry.find_machine target) in
  let width = machine.Target.Machine.word_bits in
  let band_width = (max_trips - min_trips) / strata in
  let n = min_trips + (band * band_width) + Random.State.int st band_width in
  let text = with_trips k n in
  let prog = Dfl.Lower.source text in
  let inputs = inputs_for st ~width prog in
  {
    label = Printf.sprintf "%s/N=%d@%s" kernel n target;
    target;
    text;
    inputs;
    expected = Ir.Eval.run_with_inputs ~width prog inputs;
  }

(* Every (kernel, target, band) once, in a seeded order. *)
let pool ~campaign =
  let st = Random.State.make [| campaign; 0xd5b |] in
  let slots =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun t -> List.init strata (fun b -> (Random.State.bits st, (k, t, b))))
          Common.bundled_names)
      kernels
  in
  Array.of_list (List.map (fun (_, slot) -> make_job st slot) (List.sort compare slots))

let options = Record.Options.record_

let run_plain job =
  match Driver.Registry.find_machine job.target with
  | Error msg -> Common.Broken msg
  | Ok machine -> (
    let prog = Dfl.Lower.source job.text in
    match Driver.Service.compile ~options machine prog with
    | exception Record.Pipeline.Error _ -> Common.Unsupported
    | o -> (
      let c = o.Driver.Service.compiled in
      match Record.Pipeline.execute c ~inputs:job.inputs with
      | outputs, cycles ->
        Common.Completed { words = Record.Pipeline.words c; cycles; outputs }
      | exception Sim.Mode_violation msg -> Common.Broken ("mode violation: " ^ msg)
      | exception Sim.Exec_error msg -> Common.Broken ("exec error: " ^ msg)))

let run_traced tr job =
  let prog =
    Trace.span tr "dfl.lower" (fun () ->
        Trace.add tr "dfl.bytes" (float_of_int (String.length job.text));
        Dfl.Lower.source job.text)
  in
  match
    Trace.span tr "registry.find_machine" (fun () ->
        Driver.Registry.find_machine job.target)
  with
  | Error msg -> Common.Broken msg
  | Ok machine -> (
    ignore (Common.matcher_for tr options.Record.Options.matcher machine);
    match Common.service_compile tr ~options machine prog with
    | exception Record.Pipeline.Error _ -> Common.Unsupported
    | o -> (
      let c = o.Driver.Service.compiled in
      match Common.simulate tr c ~inputs:job.inputs with
      | Ok (outputs, cycles) ->
        Common.Completed { words = Record.Pipeline.words c; cycles; outputs }
      | Error msg -> Common.Broken msg))

let setup trace =
  (match trace with
  | Some tr -> Common.traced_warm tr
  | None -> Driver.Registry.warm ());
  let generate ~seed =
    let reference = pool ~campaign:0 and seeded = pool ~campaign:(seed + 1) in
    let job i =
      if i < pool_size then reference.(i) else seeded.((i - pool_size) mod pool_size)
    in
    let judge i v = Common.judge ~label:(job i).label ~expected:(job i).expected v in
    {
      Common.units = max_int;
      work_per_unit = 1;
      prefix = pool_size;
      cycle = pool_size;
      run =
        (fun i ->
          let v, ms = Common.time_ms (fun () -> run_plain (job i)) in
          (judge i v, ms));
      run_traced =
        (fun tr i ->
          let v, ms =
            Common.time_ms (fun () ->
                Trace.unit_span tr i (fun () -> run_traced tr (job i)))
          in
          (judge i v, ms));
    }
  in
  { Common.generate; shutdown = ignore }
