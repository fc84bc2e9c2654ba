(** Content-addressed cache keys for compilations.

    A key is a stable digest of everything that determines a compilation's
    output: the IR program (structural fold, {!Ir.Prog.fold_digest}), the
    option set ({!Record.Options.to_string}), the machine (name, word
    width, banks, grammar, and register file — so two parametric ASIPs or
    two [Mdl]-loaded machines sharing a name still key apart), and a
    compiler-version salt. The default salt is the digest of the running
    executable, so rebuilding the compiler invalidates every entry without
    anyone remembering to bump a constant. *)

val machine_fingerprint : Target.Machine.t -> string
(** Digest of the machine's structural identity: name, word width, banks,
    modes, selection grammar, and register file. Memoized per machine
    value (by physical identity, one entry per machine name), which is
    sound because those fields are immutable; a structurally equal
    machine built separately gets the same digest, a different machine
    under a known name gets its own. Domain-safe. *)

val make :
  ?salt:string ->
  machine:Target.Machine.t ->
  options:Record.Options.t ->
  Ir.Prog.t ->
  string
(** The cache key, as a hex digest. [salt] defaults to the digest of the
    running executable ([Sys.executable_name]), or a fixed string when the
    binary cannot be read; tests override it to model a compiler-version
    change. *)
