(** Lock-free flat tables indexed by {!Hashcons} ids.

    A side array over canonical ids: dense, atomically grown, readable
    and writable from any number of domains without taking a lock. The
    intended use is per-node memo slots whose values are {e deterministic
    functions of the node} — two domains racing to fill one slot compute
    the same value, so a plain (non-atomic) slot write is a benign race:
    whichever write lands, readers see either the absent value (recompute)
    or the one correct value. OCaml values never tear.

    Memory is in proportion to the ids a table touches: 8 KB for each
    1,024-id range that holds at least one set slot, plus one spine cell
    per 1,024 ids up to the highest id set.

    Each table has an {e absent} value, the value of every slot never set.
    Callers keep their payloads distinguishable from it: the BURS matcher
    packs [state_id >= 1] into the low bits of an [int] table whose absent
    value is 0. *)

type 'a t

val create : 'a -> 'a t
(** [create absent] is an empty table. *)

val get : 'a t -> int -> 'a
(** [get t id] is the slot's value, or the absent value when never set (or
    lost to a benign race). O(1): two bounds checks and two loads. *)

val set : 'a t -> int -> 'a -> unit
(** [set t id v] publishes [v] into the slot, growing the table as needed.
    Growth is lock-free (CAS on the chunk spine); the slot write itself is
    plain. *)
