(** Two-tier compilation cache.

    Entries are the machine-independent outputs of a pipeline run — emitted
    assembly, layout, constant pool, stats, and phase trace — addressed by
    a {!Key} digest. An in-memory LRU tier serves repeated compilations in
    one process (the fuzzer's oracle, a batch run's duplicate jobs); a
    persistent on-disk tier ([~/.cache/record] by default, [--cache-dir] in
    the CLI) survives across runs and is shared by concurrent processes.

    Disk entries are a versioned envelope: a magic line, the key, the
    digest of the marshalled payload, then the payload. Writes go to a
    unique temporary file and are published with an atomic [rename], so a
    concurrent writer can never expose a torn entry and two writers racing
    on one key both succeed (last rename wins — entries for one key are
    byte-interchangeable by construction). Reads verify the envelope and
    the payload digest; anything unreadable, truncated, or corrupt is
    treated as a miss and the bad file is removed.

    A cache value is domain-safe: the memory tier and the counters sit
    behind one mutex (critical sections are O(1) table operations plus the
    rare LRU eviction scan), while disk I/O runs unlocked — the on-disk
    protocol already tolerates concurrent writers, whether they are
    processes or domains. The serve pool shares a single cache across all
    worker domains, which is what makes its warm tier process-wide. *)

type entry = {
  asm : Target.Asm.t;
  layout : Target.Layout.t;
  pool : (string * int) list;
  stats : Record.Pipeline.stats;
  selection : Record.Pipeline.selection_stats;
      (** selection counters of the compile that produced the entry *)
  phase_ms : (string * float) list;
      (** trace spans of the compile that produced the entry *)
}

type tier = Memory | Disk

type counters = {
  memory_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  evictions : int;  (** memory-tier LRU slots displaced by new entries *)
  corrupt : int;  (** disk entries rejected by envelope verification *)
}

type t

val default_dir : unit -> string
(** [$XDG_CACHE_HOME/record] or [$HOME/.cache/record]. *)

val create : ?memory_slots:int -> ?dir:string -> unit -> t
(** [memory_slots] bounds the LRU tier (default 256 entries). Without
    [dir] the cache is memory-only. The directory is created on demand;
    creation failure degrades to memory-only rather than erroring. *)

val find : t -> string -> (entry * tier) option
(** Lookup by key. A disk hit is promoted into the memory tier. *)

val store : t -> string -> entry -> unit
(** Insert into both tiers. Disk I/O failures are swallowed: a cache that
    cannot persist still serves the memory tier. *)

val counters : t -> counters
val dir : t -> string option
