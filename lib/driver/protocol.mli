(** Decoding of the JSON job protocol, shared by [record batch] and the
    serve daemon.

    A jobs document is an array of job objects or [{"jobs": [...]}]. Each
    job names a bundled DSPStone kernel ([kernel]) or a DFL source file
    ([file]), plus target, options, kind ([compile]/[simulate]/[timing]),
    optional label, inputs, deadline and selection mode ([selection]: a
    spelling from {!Record.Options.selection_modes}, applied atop the
    option set). Every job labels with the BURS automaton; the protocol
    has no member to choose an engine.
    Kernel jobs default to the kernel's bundled inputs and kind simulate;
    file jobs default to kind compile. Every input must name a variable
    the program declares and carry exactly its size in values
    ({!Ir.Prog.check_inputs}). Absent members take their defaults;
    a member present with the wrong type (a numeric ["target"], a string
    ["deadline"]) is an error naming the job, like an unknown spelling. *)

val read_file : string -> string
(** The contents of a regular file, read without blocking: a FIFO, a
    directory or a device is refused before a byte is read, so a FIFO
    without a writer cannot hold the caller.  Failures are [Sys_error]s
    that name the path, e.g. [F: not a regular file]. A job's ["file"]
    and every file the CLI reads go through it. *)

val job_of_json :
  ?selection:Record.Options.selection_mode ->
  int ->
  Json.t ->
  (Job.t, string) result
(** Decode one job object; the int is the job id (its position) and
    prefixes every error message. [selection] overrides the job's own
    ["selection"] member (the batch CLI's [--selection] flag). *)

val jobs_of_json :
  ?selection:Record.Options.selection_mode ->
  Json.t ->
  (Job.t list, string) result
(** Decode a whole jobs document; ids are assigned by position. Stops at
    the first invalid entry. *)
