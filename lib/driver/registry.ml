(* The bundled machines are pure values (all mutable emission state lives
   in per-compile contexts inside the pipeline), so the list is built once
   and shared.  Memoizing matters beyond avoiding rework: matcher_for keys
   warm matchers on physical grammar identity, and Asip.machine would
   otherwise rebuild a fresh grammar per call.

   Both memo cells below are touched from every domain of the serve pool,
   so they sit behind one mutex: [Lazy.force] is not domain-safe (a racing
   force raises [Lazy.Undefined]), and the matcher table is a plain
   Hashtbl.  The critical sections build at most one machine list or one
   matcher, then everything runs on the shared immutable values. *)
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let machines_list =
  lazy
    [
      Target.Tic25.machine;
      Target.Dsp56.machine;
      Target.Risc32.machine;
      Target.Asip.machine Target.Asip.default;
    ]

let machines () = locked (fun () -> Lazy.force machines_list)

let names () = List.map (fun (m : Target.Machine.t) -> m.name) (machines ())

(* Machines registered at runtime (the DSE sweep's generated targets).
   Keyed by name, consulted before the bundled list so a registered
   machine resolves exactly like a bundled one — which is what lets
   Job.run, the batch schedulers, and the serve pool compile against
   generated targets without any new plumbing. *)
let extras : (string, Target.Machine.t) Hashtbl.t = Hashtbl.create 64

let register (m : Target.Machine.t) =
  locked (fun () -> Hashtbl.replace extras m.Target.Machine.name m)

let find_machine name =
  match locked (fun () -> Hashtbl.find_opt extras name) with
  | Some m -> Ok m
  | None -> (
    match
      List.find_opt (fun (m : Target.Machine.t) -> m.name = name) (machines ())
    with
    | Some m -> Ok m
    | None ->
      Error
        (Printf.sprintf "unknown target %s (available: %s)" name
           (String.concat ", " (names ()))))

(* Keyed by (machine name, engine): a caller that asks for the DP
   reference engine gets its own long-lived matcher and never cools the
   automaton the serve pool shares. *)
let matchers : (string * Burg.Matcher.engine, Burg.Matcher.t) Hashtbl.t =
  Hashtbl.create 8

let matcher_for ?(engine = Burg.Matcher.Table) (m : Target.Machine.t) =
  locked (fun () ->
      match Hashtbl.find_opt matchers (m.name, engine) with
      | Some mt when Burg.Matcher.grammar mt == m.Target.Machine.grammar -> mt
      | Some _ | None ->
        (* Unknown name, or a caller-constructed machine (e.g. a non-default
           asip) reusing a registry name with a different grammar: build a
           matcher for this grammar and remember it. *)
        let mt = Burg.Matcher.create ~engine m.Target.Machine.grammar in
        Hashtbl.replace matchers (m.name, engine) mt;
        mt)

let warm () = List.iter (fun m -> ignore (matcher_for m)) (machines ())
