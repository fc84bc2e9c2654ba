(** Lock-free flat int tables indexed by {!Hashcons} ids.

    A side array over canonical ids: dense, atomically grown, readable
    and writable from any number of domains without taking a lock. The
    intended use is per-node memo slots whose values are {e deterministic
    functions of the node} — two domains racing to fill one slot compute
    the same value, so a plain (non-atomic) slot write is a benign race:
    whichever write lands, readers see either 0 (absent — recompute) or
    the one correct value. OCaml ints never tear.

    Slot value 0 is reserved for "absent"; callers must encode their
    payloads away from 0 (the BURS matcher packs [state_id >= 1] into the
    low bits for exactly this reason). *)

type t

val create : unit -> t

val get : t -> int -> int
(** [get t id] is the slot's value, or [0] when never set (or lost to a
    benign race). O(1): two bounds checks and two loads. *)

val set : t -> int -> int -> unit
(** [set t id v] publishes [v] (must be non-zero) into the slot, growing
    the table as needed. Growth is lock-free (CAS on the chunk spine);
    the slot write itself is plain. *)
