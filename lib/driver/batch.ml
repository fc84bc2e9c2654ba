type report = {
  results : Job.result list;
  workers : int;
  wall_ms : float;
}

let run ?domains ?timeout ?cache jobs =
  (match timeout with
  | Some s when not (Float.is_finite s && s > 0.0) ->
    invalid_arg
      (Printf.sprintf "Batch.run: timeout must be positive and finite, got %g"
         s)
  | Some _ | None -> ());
  let t0 = Unix.gettimeofday () in
  let pool = Pool.create ?domains () in
  let results =
    Fun.protect
      ~finally:(fun () -> Pool.shutdown pool)
      (fun () -> Pool.run_jobs pool ?cache ?timeout jobs)
  in
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
