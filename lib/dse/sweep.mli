(** The design-space exploration driver: seed → sampled target farm →
    compiled workload → Pareto front.

    One sweep draws [samples] architectures from the seed ({!Sample}),
    builds and registers a machine per {e unique} parameter set (duplicate
    draws share it), compiles and simulates every workload kernel against
    every sample through the content-addressed {!Driver.Cache} on the
    {!Driver.Pool} domain scheduler ({!Driver.Batch.run} with [~domains]),
    scores each architecture ({!Score}), and extracts the Pareto front
    over (words, cycles, cost) ({!Pareto}).

    Caching does the heavy lifting at scale: cache keys are derived from
    the machine fingerprint, and machine names encode the full parameter
    record, so duplicate samples hit within a cold sweep and a rerun of
    the same seed against a persistent cache directory hits on every job —
    the ≥90 % warm-hit-rate property the [dse-smoke] CI job asserts. *)

type config = {
  seed : int;
  samples : int;
  kernels : string list;  (** DSPStone kernel names; the workload *)
  domains : int;  (** pool width for {!Driver.Batch.run} [~domains] *)
  cache : Driver.Cache.t option;
  selection : Record.Options.selection_mode;
      (** selection mode for every compile of the sweep; part of the
          options digest, so modes never share cache entries *)
  matcher : Burg.Matcher.engine;
      (** labelling engine for every compile of the sweep ([record dse]
          passes the default, [Table]); part of the options digest, so
          engines never share cache entries, but not of the document *)
}

type result = {
  config : config;
  points : Sample.point list;  (** sample order *)
  unique_architectures : int;  (** distinct parameter sets among the draws *)
  scores : Score.t list;  (** sample order *)
  front : Score.t list;
      (** non-dominated complete scores, sample order — incomplete
          architectures (a kernel the sample cannot carry) are reported in
          [scores] but never ranked *)
  report : Driver.Batch.report;
  completed : int;  (** jobs with a [Done] status *)
  hits : int;  (** completed jobs served from the cache *)
}

val default_kernels : unit -> string list
(** The Table-1 workload: every bundled DSPStone kernel name. *)

val run : config -> result
(** Execute the sweep. Machines already registered under a sample's
    canonical name are re-used (their matchers stay warm across
    sweeps in one process — the serve-daemon scenario); new ones are
    built, validated, and registered.
    @raise Invalid_argument on an unknown kernel name or [samples < 1]. *)

val hit_rate : result -> float
(** [hits / completed] ([0.] when nothing completed), the fraction the
    CLI's [--require-hit-rate] gates on. *)

val to_json : result -> Driver.Json.t
(** The [record dse] document (protocol [record-dse-1]): seed, samples,
    workload, selection mode, cost model, every scored architecture, and
    the Pareto front. It is a pure function of the config's seed,
    samples, kernels and selection —
    byte-identical across runs, cold or warm. Volatile facts (cache hit
    rate, wall-clock) are in {!pp_summary} and {!hit_rate}, not here. *)

val pp_summary : Format.formatter -> result -> unit
(** Human summary: sweep shape, failure census, the Pareto front as a
    table, and the cache counters (evictions included — a long sweep that
    thrashes its memory tier shows up here). *)
