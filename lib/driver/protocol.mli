(** Decoding of the JSON job protocol, shared by [record batch] and the
    serve daemon.

    A jobs document is an array of job objects or [{"jobs": [...]}]. Each
    job names a bundled DSPStone kernel ([kernel]) or a DFL source file
    ([file]), plus target, options, kind ([compile]/[simulate]/[timing]),
    optional label, inputs, deadline, selection mode ([selection]: a
    spelling from {!Record.Options.selection_modes}, applied atop the
    option set),
    and labelling engine ([matcher]: ["dp"] or ["table"]).
    Kernel jobs default to the kernel's bundled inputs and kind simulate;
    file jobs default to kind compile. Every input must name a variable
    the program declares and carry exactly its size in values
    ({!Ir.Prog.check_inputs}). Absent members take their defaults;
    a member present with the wrong type (a numeric ["target"], a string
    ["deadline"]) is an error naming the job, like an unknown spelling. *)

val job_of_json :
  ?selection:Record.Options.selection_mode ->
  ?matcher:Burg.Matcher.engine ->
  int ->
  Json.t ->
  (Job.t, string) result
(** Decode one job object; the int is the job id (its position) and
    prefixes every error message. [selection] overrides the job's own
    ["selection"] member (the batch CLI's [--selection] flag), and
    [matcher] the job's ["matcher"] member ([--matcher]) likewise. *)

val jobs_of_json :
  ?selection:Record.Options.selection_mode ->
  ?matcher:Burg.Matcher.engine ->
  Json.t ->
  (Job.t list, string) result
(** Decode a whole jobs document; ids are assigned by position. Stops at
    the first invalid entry. *)
