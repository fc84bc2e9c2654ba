(** The batch scheduler: one job list on the process-wide {!Pool} of the
    requested width, started by the first run at that width and kept
    until exit, so later runs (each [Dse.Sweep.run] of a sweep loop)
    find its workers warm. The calling domain computes jobs beside the
    workers ({!Pool.run_jobs}).

    The domains share one intern table, one matcher table per target and
    one cache (memory tier included), so one job's work warms all the
    others. Results come back in job-id order whatever the completion
    interleaving, so batch output is deterministic for any pool size.

    A job that raises is reported [Failed] without disturbing its
    neighbours. With [timeout], each job gets its own wall-clock deadline
    from the moment it starts; the pipeline and the compiled simulator
    poll it ({!Ir.Deadline}), and a job that runs past it reports
    [Timed_out] while the rest of the batch completes. *)

type report = {
  results : Job.result list;  (** in job-id order *)
  workers : int;  (** worker domains in the pool *)
  wall_ms : float;
}

val run :
  ?domains:int -> ?timeout:float -> ?cache:Cache.t -> Job.t list -> report
(** [domains] (worker domains) defaults to {!Pool.default_domains};
    [timeout] (seconds) applies per job, default none.
    @raise Invalid_argument unless [timeout] is positive and finite, or
    when the pool cannot start (see {!Pool.create}). *)

val hits : report -> int
(** Completed jobs served from the cache. *)

val completed : report -> int
(** Jobs with a [Done] status. *)
