(** The batch scheduler: one job list on a fresh {!Pool} of OCaml 5
    domains.

    The domains share one intern table, one matcher table per target and
    one cache (memory tier included), so one job's work warms all the
    others. Results come back in job-id order whatever the completion
    interleaving, so batch output is deterministic for any pool size.

    A job that raises is reported [Failed] without disturbing its
    neighbours. With [timeout], each job gets its own wall-clock deadline
    from the moment a domain starts it; the pipeline and the compiled
    simulator poll it ({!Sim.Deadline}), and a job that runs past it
    reports [Timed_out] while the rest of the batch completes. *)

type report = {
  results : Job.result list;  (** in job-id order *)
  workers : int;  (** worker domains used *)
  wall_ms : float;
}

val run :
  ?domains:int -> ?timeout:float -> ?cache:Cache.t -> Job.t list -> report
(** [domains] defaults to {!Pool.default_domains}; [timeout] (seconds)
    applies per job, default none.
    @raise Invalid_argument unless [timeout] is positive and finite. *)

val hits : report -> int
(** Completed jobs served from the cache. *)

val completed : report -> int
(** Jobs with a [Done] status. *)
