(** The bundled-target registry.

    One authority for name → machine resolution, shared by every CLI
    subcommand, the batch scheduler, and the fuzzer's campaign setup —
    previously each subcommand carried its own copy of this lookup. *)

val machines : unit -> Target.Machine.t list
(** The bundled machines: tic25, dsp56, risc32, and the default-parameter
    asip. Built once and shared — machines are pure values (mutable
    emission state lives in per-compile contexts inside the pipeline). *)

val names : unit -> string list

val find_machine : string -> (Target.Machine.t, string) result
(** Registered machines first, then the bundled list. [Error] names the
    unknown target and lists the available bundled ones. *)

val register : Target.Machine.t -> unit
(** Make a constructed machine (a generated ASIP of the DSE sweep, an
    MDL-loaded description) resolvable by name exactly like a bundled
    one. Replaces any previous registration under the same name — callers
    whose names encode the full machine structure (the sweep's canonical
    parameter names) should re-use an already-registered machine via
    {!find_machine} instead of re-registering, which keeps the matcher of
    {!matcher_for} warm across sweeps. Domain-safe. *)

val matcher_for :
  ?engine:Burg.Matcher.engine -> Target.Machine.t -> Burg.Matcher.t
(** The process-wide long-lived matcher for this machine's grammar and
    the given engine (default [Table], the engine every job labels with
    unless its options name the DP reference). Its labelling state — BURS
    state slots or the DP table — stays warm across compilations, so batch
    jobs for one target share labellings of repeated subtrees. Returns a
    fresh matcher (and caches it) when the machine's grammar is not
    physically the one already registered under that (name, engine) key.
    Domain-safe: lookups are serialized behind the registry mutex, and
    the matchers themselves are safe to share across domains. *)

val warm : unit -> unit
(** Force the machine list and create the default engine's matcher for
    every bundled target; a DP matcher is only created when a caller asks
    {!matcher_for} for one. Creating a matcher builds no automaton state (see
    {!Burg.Matcher.create}), so this is cheap; the pool calls it once
    before spawning worker domains so that workers find the machine list
    and the matcher table filled in. *)
