(** The multicore job pool: a fixed set of OCaml 5 domains draining one
    MPMC task queue — the one scheduler behind [record batch], the serve
    daemon and the DSE sweep.

    A pool's domains {e share} the compiler's state in one address space:
    one striped intern table ({!Ir.Hashcons}), one warm matcher per
    target ({!Registry.matcher_for}), one two-tier cache ({!Cache}). A
    job's interning and labelling work is visible to every later job on
    any domain, which is the amortization the serve daemon exists for.

    Tasks may be submitted from any domain or systhread; the serve
    daemon's connection handlers all feed one pool. *)

type t

val default_domains : unit -> int
(** [Domain.recommended_domain_count () - 1] (at least 1): the worker
    domains, with one core left for the submitting domain, which computes
    jobs beside them (see {!run_jobs}). *)

val create : ?domains:int -> unit -> t
(** Spawn the worker domains (default {!default_domains}). Shared lazy
    state (machine registry, per-target matchers) is forced before any
    worker starts.
    @raise Invalid_argument if [domains] is below 1, or if the runtime
    cannot start that many domains (the workers already started are
    joined first). *)

val size : t -> int
(** Worker domains in the pool. *)

val submit : t -> (unit -> unit) -> unit
(** Enqueue a task. Tasks run in FIFO order, one per free worker; a task
    that raises is dropped (the worker survives). Raises [Invalid_argument]
    after {!shutdown}. *)

val run_jobs :
  t -> ?cache:Cache.t -> ?timeout:float -> Job.t list -> Job.result list
(** Run every job and block until all complete. Jobs are claimed in
    order through one shared cursor by at most one task per worker and by
    the submitter itself, so a batch finishes even when every worker is
    busy. The submitter computes only while it holds its domain's seat,
    which one systhread per domain holds at a time (the kept variant
    searches and the job deadline are domain-local); a submitter that
    finds the seat taken waits for the workers. Results come back in
    input order whatever the interleaving, so output built from them is
    deterministic for any pool size. [timeout] is each job's own wall-clock limit from
    the moment it starts (see {!Job.run}); a job that raises is reported
    [Failed]. Callable concurrently from several submitters (each call
    has its own cursor and completion latch). *)

val shutdown : t -> unit
(** Close the queue, drain remaining tasks, and join every worker. *)
