(** The differential oracle: compiled code versus the reference interpreter.

    A generated program is compiled for a machine under a given option set,
    executed on the instruction-set simulator, and its outputs compared
    word-for-word against {!Ir.Eval}. Outcomes are classified so that a
    legitimate "cannot compile" (no cover, AGU exhaustion, register
    pressure) is distinguished from wrong code, and so that dynamic checker
    trips ({!Sim.Mode_violation}, {!Sim.Exec_error}) and static-timing
    drift surface as the distinct compiler bugs they are. *)

type failure_kind =
  | Miscompile  (** simulated outputs differ from the interpreter *)
  | Timing_drift  (** static cycle count differs from the simulated one *)
  | Mode_trip  (** {!Sim.Mode_violation}: mode minimization emitted a
                    moded instruction without its mode set *)
  | Exec_trip  (** {!Sim.Exec_error}: malformed code reached the simulator *)
  | Engine_divergence
      (** the compiled and interpretive simulator engines disagree on
          outputs, cycles, or the raised error — a simulator bug, not a
          compiler bug *)

type verdict =
  | Pass of { cycles : int; words : int }
  | Skipped_contract
      (** the program's exact-integer intermediates leave the word range, so
          it is outside the fixed-point contract and has no single defined
          answer across accumulator widths; not compiled *)
  | Cannot_compile of string  (** {!Record.Pipeline.Error}; not a bug *)
  | Failed of { kind : failure_kind; detail : string }

val within_contract :
  ?width:int ->
  ?sat_headroom:bool ->
  Ir.Prog.t ->
  (string * int array) list ->
  bool
(** True when every value of the exact-integer evaluation — including the
    value each statement stores — stays inside the signed [width]-bit
    range, except, when [sat_headroom] (default true), values fed directly
    to [sat]. Stored values must fit because store/load forwarding keeps
    the wide register value where the memory round-trip would wrap it; sat
    arguments lose their headroom under code generators that home every
    interior node to memory (the conventional baseline's macro expansion),
    so {!check} passes [sat_headroom:false] for
    {!Record.Options.Naive_macro}. *)

val check :
  ?cache:Driver.Cache.t ->
  ?options:Record.Options.t ->
  Target.Machine.t ->
  Gen.case ->
  verdict
(** One case on one machine under one option set (default
    {!Record.Options.record_}). With [cache], compilation goes through
    {!Driver.Service.compile}, so repeated checks of one program (the
    shrink loop, the post-shrink verdict) reuse the cached pipeline
    output.  Every case runs on both simulator engines, which must agree
    on outputs, cycles and raised errors ({!Engine_divergence}), so each
    check is an engine differential too. *)

val is_failure : verdict -> bool

(** {1 Campaigns} *)

type combo = {
  machine : Target.Machine.t;
  options : Record.Options.t;
  label : string;  (** e.g. ["tic25/record"] — stable across runs *)
}

val default_combos : unit -> combo list
(** Every machine of {!Driver.Registry.machines} (tic25, dsp56, risc32,
    asip) under both the RECORD and the conventional option sets. The
    combos carry the registry's own machine values, so checking them
    reuses the registry's long-lived matchers. *)

val combos_for :
  ?selection:Record.Options.selection_mode ->
  machines:Target.Machine.t list ->
  conventional:bool ->
  unit ->
  combo list
(** RECORD combos for every machine (under [selection], default [Tree] —
    non-default modes are reflected in the combo label), plus the
    conventional baseline (always [Tree]: it models a compiler without
    the selection subsystem) when [conventional]. Every combo labels with
    the default engine; a dp-vs-table differential campaign maps
    {!Record.Options.with_matcher} over the combos' options, keeping the
    labels, so the two reports compare as text. *)

type counterexample = {
  case : Gen.case;  (** as generated — reproduce with its seed and index *)
  combo : string;
  target : string;
      (** the failing combo's machine name, so a reproduce line can carry a
          real [--target] flag instead of a trailing comment *)
  record_options : bool;
      (** the failing option set is exactly {!Record.Options.record_}, so
          the reproduce line may add [--record-only] *)
  options_digest : string;
      (** {!Record.Options.digest} of the failing option set, so a
          reproduce line pins the exact configuration, not just its
          label *)
  verdict : verdict;
  shrunk : Gen.case;  (** minimized by {!Shrink.minimize} *)
  shrunk_verdict : verdict;
}

type report = {
  seed : int;
  count : int;
  combos : string list;
  pass : (string * int) list;  (** per combo *)
  skipped : (string * int) list;
      (** per combo: cases outside that combo's fixed-point contract *)
  cannot_compile : (string * int) list;  (** per combo *)
  counterexamples : counterexample list;
}

val run :
  ?config:Gen.config ->
  ?combos:combo list ->
  ?shrink:bool ->
  seed:int ->
  count:int ->
  unit ->
  report
(** Generate [count] cases from [seed] and check each on every combo.
    Failing cases are minimized with {!Shrink.minimize} (disable with
    [~shrink:false]). Deterministic: same arguments, same report. *)

val failures : report -> int

val pp_verdict : Format.formatter -> verdict -> unit
val pp_counterexample : Format.formatter -> counterexample -> unit
val pp_report : Format.formatter -> report -> unit
