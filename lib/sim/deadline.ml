exception Expired

(* Absolute time in [Unix.gettimeofday] seconds; [infinity] is no deadline. *)
let slot = Domain.DLS.new_key (fun () -> infinity)

let check () =
  let deadline = Domain.DLS.get slot in
  if deadline < infinity && Unix.gettimeofday () >= deadline then
    raise Expired

let within seconds f =
  let saved = Domain.DLS.get slot in
  Domain.DLS.set slot (Unix.gettimeofday () +. seconds);
  Fun.protect
    ~finally:(fun () -> Domain.DLS.set slot saved)
    (fun () ->
      check ();
      f ())
