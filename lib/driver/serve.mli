(** The persistent compile daemon behind [record serve].

    A long-lived process hosting one {!Pool} of worker domains and the
    shared selection state the pool amortizes across requests: the striped
    intern table, one warm BURG matcher per target, and one two-tier
    cache. Requests are newline-delimited JSON documents — each line is a
    jobs document in the batch jobs-file format (optionally wrapped as
    [{"jobs": [...], "deterministic": bool}]) or an op object
    ([{"op": "ping" | "stats" | "shutdown"}]) — and each reply is one
    line: the record-batch-1 results document, compact-encoded, or a
    record-serve-1 status document. Responses are byte-deterministic under
    [deterministic] exactly like [record batch --deterministic], whatever
    the pool size.

    A [stats] reply carries the pool width, the jobs served, the cache
    counters, and the intern table's [hashcons] object: [live], [hits],
    [misses], and [max_chain], the longest probe run of its interior-node
    table ({!Ir.Hashcons.max_chain}; it stays in the tens while shard and
    slot indices come from disjoint hash bits). *)

type config = {
  domains : int;  (** worker domains in the pool *)
  deterministic : bool;
      (** default for requests without a ["deterministic"] member *)
  cache : Cache.t option;  (** shared by every worker domain *)
  matcher : Burg.Matcher.engine option;
      (** when set, the labelling engine of every job the daemon decodes;
          [None] (what [record serve] passes) keeps the default engine.
          An embedder's knob: the jobs protocol and the CLI cannot choose
          an engine *)
}

type state
(** Per-daemon mutable counters (jobs served), shared by every connection
    handler. *)

val fresh_state : unit -> state

val handle : Pool.t -> config -> state -> string -> Json.t * bool
(** Process one request line against a pool: the reply document, and
    whether the request asked the daemon to shut down. This is the whole
    per-line protocol — [run_stdio]/[run_socket] are transports around it —
    exposed so embedders and tests can drive the daemon without a process
    boundary (e.g. asserting the [stats] reply surfaces the cache
    counters, eviction count included). *)

val run_stdio : config -> unit
(** Serve requests from stdin, replies to stdout, until EOF or a
    shutdown request. *)

val run_socket : config -> path:string -> unit
(** Listen on a Unix-domain socket (the path is replaced if it exists,
    removed on exit). Connections are handled concurrently, one systhread
    each, all feeding one pool; a shutdown request from any connection
    stops the daemon. *)
