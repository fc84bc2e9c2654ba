(* The persistent compile daemon behind [record serve].

   One process hosts one {!Pool} of worker domains plus the shared state
   the pool amortizes (striped intern table, one warm matcher per target,
   one two-tier cache).  Requests arrive as newline-delimited JSON — over
   stdin/stdout by default, or over a Unix-domain socket with one
   systhread per connection — and every request's jobs are multiplexed
   into the one pool, so concurrent clients warm each other's caches.
   The thread that reads a request computes its jobs beside the workers
   while it holds the main domain's seat ([Pool.run_jobs]); connection
   threads that find the seat taken leave their jobs to the workers, so
   one thread at a time computes on the main domain.

   Protocol (one JSON document per line, response is one line):

     {"jobs": [...], "deterministic": true}   compile request; the jobs
         member is exactly the batch jobs-file format, the reply is the
         record-batch-1 results document (compact)
     [...]                                    bare jobs array, ditto
     {"op": "ping"}                           liveness probe
     {"op": "stats"}                          daemon counters
     {"op": "shutdown"}                       stop the daemon *)

type config = {
  domains : int;
  deterministic : bool;
      (* default for requests that do not carry a "deterministic" member *)
  cache : Cache.t option;
  matcher : Burg.Matcher.engine option;
      (* when set, the labelling engine of every decoded job *)
}

type request =
  | Jobs of { jobs : Job.t list; deterministic : bool }
  | Ping
  | Stats
  | Shutdown

let parse_request config doc =
  let op =
    match doc with
    | Json.Obj _ -> Option.bind (Json.member "op" doc) Json.to_string_lit
    | _ -> None
  in
  match op with
  | Some "ping" -> Ok Ping
  | Some "stats" -> Ok Stats
  | Some "shutdown" -> Ok Shutdown
  | Some other -> Error (Printf.sprintf "unknown op %S" other)
  | None ->
    let ( let* ) = Result.bind in
    let* deterministic =
      match Json.member "deterministic" doc with
      | None -> Ok config.deterministic
      | Some v -> (
        match Json.to_bool v with
        | Some b -> Ok b
        | None -> Error {|"deterministic" must be a boolean|})
    in
    let* jobs = Protocol.jobs_of_json doc in
    let jobs =
      match config.matcher with
      | None -> jobs
      | Some engine ->
        List.map
          (fun (j : Job.t) ->
            { j with options = Record.Options.with_matcher engine j.options })
          jobs
    in
    Ok (Jobs { jobs; deterministic })

let protocol_field = ("protocol", Json.String "record-serve-1")

let error_doc msg =
  Json.Obj
    [ protocol_field; ("status", Json.String "error"); ("error", Json.String msg) ]

let ok_doc = Json.Obj [ protocol_field; ("status", Json.String "ok") ]

let stats_doc pool config ~jobs_served =
  let hc = Ir.Hashcons.stats () in
  let cache_fields =
    match config.cache with
    | None -> [ ("cache", Json.Null) ]
    | Some cache ->
      let c = Cache.counters cache in
      [
        ( "cache",
          Json.Obj
            [
              ("memory_hits", Json.Int c.Cache.memory_hits);
              ("disk_hits", Json.Int c.Cache.disk_hits);
              ("misses", Json.Int c.Cache.misses);
              ("stores", Json.Int c.Cache.stores);
              ("evictions", Json.Int c.Cache.evictions);
              ("corrupt", Json.Int c.Cache.corrupt);
            ] );
      ]
  in
  Json.Obj
    ([
       protocol_field;
       ("status", Json.String "ok");
       ("domains", Json.Int (Pool.size pool));
       ("jobs_served", Json.Int jobs_served);
       ( "hashcons",
         Json.Obj
           [
             ("live", Json.Int hc.Ir.Hashcons.live);
             ("hits", Json.Int hc.Ir.Hashcons.hits);
             ("misses", Json.Int hc.Ir.Hashcons.misses);
             ("max_chain", Json.Int (Ir.Hashcons.max_chain ()));
           ] );
     ]
    @ cache_fields)

(* Served-jobs total, shared by every connection handler. *)
type state = { lock : Mutex.t; mutable jobs_served : int }

let handle pool config state line =
  match Json.of_string line with
  | Error msg -> (error_doc msg, false)
  | Ok doc -> (
    match parse_request config doc with
    | Error msg -> (error_doc msg, false)
    | Ok Ping -> (ok_doc, false)
    | Ok Shutdown -> (ok_doc, true)
    | Ok Stats ->
      let jobs_served =
        Mutex.lock state.lock;
        let n = state.jobs_served in
        Mutex.unlock state.lock;
        n
      in
      (stats_doc pool config ~jobs_served, false)
    | Ok (Jobs { jobs; deterministic }) ->
      let results = Pool.run_jobs pool ?cache:config.cache jobs in
      Mutex.lock state.lock;
      state.jobs_served <- state.jobs_served + List.length jobs;
      Mutex.unlock state.lock;
      (Job.results_to_json ~deterministic ~jobs results, false))

(* Serve one channel pair until EOF or a shutdown request.  Blank lines
   are ignored (convenient for hand-driven sessions). *)
let serve_channels pool config state ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | line ->
      if String.trim line = "" then loop ()
      else begin
        let response, quit = handle pool config state line in
        output_string oc (Json.to_string response);
        output_char oc '\n';
        flush oc;
        if quit then `Shutdown else loop ()
      end
  in
  loop ()

let fresh_state () = { lock = Mutex.create (); jobs_served = 0 }

let run_stdio config =
  let pool = Pool.create ~domains:config.domains () in
  let state = fresh_state () in
  ignore (serve_channels pool config state stdin stdout);
  Pool.shutdown pool

let run_socket config ~path =
  let pool = Pool.create ~domains:config.domains () in
  let state = fresh_state () in
  let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Unix.bind sock (Unix.ADDR_UNIX path);
  Unix.listen sock 64;
  (* One systhread per connection; every handler feeds the same pool, and
     a shutdown request from any connection stops the accept loop by
     shutting the listening socket down under it. *)
  let stopping = Mutex.create () in
  let stopped = ref false in
  let request_stop () =
    Mutex.lock stopping;
    if not !stopped then begin
      stopped := true;
      (try Unix.shutdown sock Unix.SHUTDOWN_ALL with Unix.Unix_error _ -> ())
    end;
    Mutex.unlock stopping
  in
  let rec accept_loop () =
    match Unix.accept sock with
    | exception Unix.Unix_error _ -> ()  (* listener shut down (or died) *)
    | fd, _ ->
      let ic = Unix.in_channel_of_descr fd in
      let oc = Unix.out_channel_of_descr fd in
      ignore
        (Thread.create
           (fun () ->
             let outcome =
               try serve_channels pool config state ic oc
               with Sys_error _ -> `Eof  (* client went away mid-write *)
             in
             (try Unix.close fd with Unix.Unix_error _ -> ());
             match outcome with
             | `Shutdown -> request_stop ()
             | `Eof -> ())
           ());
      accept_loop ()
  in
  accept_loop ();
  (try Unix.close sock with Unix.Unix_error _ -> ());
  (try Unix.unlink path with Unix.Unix_error _ -> ());
  Pool.shutdown pool
