(** Cooperative per-job wall-clock deadlines.

    Each domain holds at most one deadline, set by {!within} around one
    job (a pool domain runs one job at a time). Long-running code polls it
    with {!check} at points where abandoning the work leaves no shared
    state half-updated: the pipeline between phases and between
    statements or selection runs, and the compiled simulator once per
    chunk of loop trips. Nothing polls inside a lock, so an expired job
    leaves no lock held and no partial cache entry. *)

exception Expired

val within : float -> (unit -> 'a) -> 'a
(** [within seconds f] runs [f] with the calling domain's deadline set
    [seconds] from now, and restores the previous deadline when [f]
    returns or raises. Raises {!Expired} before calling [f] if the
    deadline has already passed. *)

val check : unit -> unit
(** Raise {!Expired} if the calling domain's deadline has passed. Without
    a deadline it reads no clock. *)
