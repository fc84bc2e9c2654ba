(** The job model of the batch-compilation protocol.

    A job is one (program × target × options) compilation plus what to do
    with the result: nothing ([Compile]), run it on the simulator
    ([Simulate]), or statically analyze it ([Timing], optionally against a
    deadline). Jobs and results are plain data — no closures — and the
    JSON encoders below give every consumer (CLI, bench, CI) one wire
    format.

    JSON encoding is split into a deterministic core and volatile
    provenance: with [~deterministic:true] the encoders drop wall-clock
    times, phase traces, and cache provenance, leaving exactly the fields
    that are a pure function of the job — which is what CI byte-compares
    across runs. *)

type kind =
  | Compile
  | Simulate
  | Timing of { deadline : int option }

type t = {
  id : int;  (** position in the submitted list; orders the results *)
  label : string;
  source : string;  (** human provenance, e.g. ["kernel fir"] *)
  target : string;  (** {!Registry} name, resolved by the worker *)
  options_label : string;  (** ["record"] or ["conventional"] *)
  options : Record.Options.t;
  prog : Ir.Prog.t;
  inputs : (string * int array) list;  (** for [Simulate] *)
  kind : kind;
}

val make :
  id:int ->
  ?label:string ->
  ?source:string ->
  target:string ->
  ?options_label:string ->
  ?options:Record.Options.t ->
  ?inputs:(string * int array) list ->
  ?kind:kind ->
  Ir.Prog.t ->
  t
(** [options] defaults from [options_label] (["record"] unless given);
    [label] defaults to ["<prog>@<target>/<options_label>"]. *)

type success = {
  words : int;
  instrs : int;
  stats : Record.Pipeline.stats;
  selection : Record.Pipeline.selection_stats;
  cycles : int option;  (** [Simulate] *)
  outputs : (string * int array) list;  (** [Simulate] *)
  static_cycles : int option;  (** [Timing] *)
  deadline_met : bool option;
  asm : string;  (** rendered listing *)
  key : string;
  cache : Service.provenance;
  wall_ms : float;
  phase_ms : (string * float) list;
}

type status =
  | Done of success
  | Unsupported of string
      (** {!Record.Pipeline.Error}: the program has no code on this machine
          (no cover, AGU exhaustion, register pressure) — a legitimate
          outcome, like the fuzz oracle's [Cannot_compile], not a batch
          failure *)
  | Failed of string  (** simulator trips or an unresolvable target *)
  | Timed_out of float
      (** the job's deadline passed before it finished; carries the
          per-job timeout, in seconds *)
  | Crashed of string
      (** reserved: no scheduler reports it, since every job runs
          in-process on a {!Pool} domain; kept so code that matches on
          [status] keeps compiling *)

type result = { job : int; label : string; status : status }

val run : ?cache:Cache.t -> ?timeout:float -> t -> result
(** Execute one job in-process: resolve the target via {!Registry},
    compile through {!Service}, then simulate or analyze per [kind]. With
    [timeout] (seconds, positive) the job runs under a {!Sim.Deadline}
    that the pipeline and the compiled simulator poll; a job still running
    when it passes reports [Timed_out]. All failures are captured in the
    result — [run] does not raise. *)

(** {1 JSON encoding} *)

val kind_name : kind -> string

val to_json : t -> Json.t
(** The job's description (no program body): id, label, source, target,
    options label and fingerprint, kind. *)

val selection_to_json : Record.Pipeline.selection_stats -> Json.t
(** Selection counters as a flat object (trees, variants, pruned, dedup,
    variant nodes, nodes labelled, memo hits). Encoded in the volatile
    section of a success: the matcher counters are deltas against a DP
    table shared across one worker's jobs, so they depend on scheduling. *)

val result_to_json : ?deterministic:bool -> result -> Json.t

val results_to_json :
  ?deterministic:bool -> jobs:t list -> result list -> Json.t
(** The full batch document: per-job results plus a cache-summary object
    (hits, misses, hit rate) derived from the results. The summary is
    provenance, so [~deterministic:true] omits it. *)
