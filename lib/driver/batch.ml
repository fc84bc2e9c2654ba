type report = {
  results : Job.result list;
  workers : int;
  wall_ms : float;
}

(* One pool per width, started by the first run at that width and kept
   until exit: later runs find its workers started, each with the variant
   searches its domain kept ([Ir.Algebra]). *)
let pools : (int, Pool.t) Hashtbl.t = Hashtbl.create 2
let pools_lock = Mutex.create ()

let pool width =
  Mutex.protect pools_lock (fun () ->
      match Hashtbl.find_opt pools width with
      | Some p -> p
      | None ->
        let p = Pool.create ~domains:width () in
        Hashtbl.add pools width p;
        p)

let run ?(domains = Pool.default_domains ()) ?timeout ?cache jobs =
  (match timeout with
  | Some s when not (Float.is_finite s && s > 0.0) ->
    invalid_arg
      (Printf.sprintf "Batch.run: timeout must be positive and finite, got %g"
         s)
  | Some _ | None -> ());
  let t0 = Unix.gettimeofday () in
  let pool = pool domains in
  let results = Pool.run_jobs pool ?cache ?timeout jobs in
  {
    results;
    workers = Pool.size pool;
    wall_ms = (Unix.gettimeofday () -. t0) *. 1000.0;
  }

let hits report =
  List.length
    (List.filter
       (fun (r : Job.result) ->
         match r.Job.status with
         | Job.Done s -> Service.is_hit s.Job.cache
         | Job.Unsupported _ | Job.Failed _ | Job.Timed_out _
         | Job.Crashed _ ->
           false)
       report.results)

let completed report =
  List.length
    (List.filter
       (fun (r : Job.result) ->
         match r.Job.status with
         | Job.Done _ -> true
         | Job.Unsupported _ | Job.Failed _ | Job.Timed_out _
         | Job.Crashed _ ->
           false)
       report.results)
