(** Register assignment for heterogeneous register sets (§3.3: Wess, Araujo,
    Rimey, Bradlee, Hartmann).

    Virtual registers are class-typed by the emitters; the allocator maps
    each to a physical register of its class with a loop-aware linear scan.
    Lifetimes that cross a loop boundary are extended over the whole loop;
    the scan takes them in order of extended start, then of id.

    Under pressure the allocator spills: it parks the interfering value with
    the furthest use in a scratch memory cell (using the machine's
    per-class spill instructions) and reloads it before each use, then
    retries. Only single-definition, loop-local values of classes the
    machine declares spillable are candidates; for singleton classes whose
    grammar already serializes through memory (accumulator machines) the
    scan mostly degenerates into a verification. *)

exception Pressure of string
(** Raised when allocation is impossible even with spilling — a machine
    description bug (or an AGU/loop structure the target cannot host). *)

val run :
  ?ctx:Target.Machine.ctx -> Target.Machine.t -> Target.Asm.t -> Target.Asm.t
(** Replaces every virtual register by a physical register, inserting spill
    code when needed. [ctx] supplies fresh scratch cells and virtual
    registers for spilling; without it, pressure is fatal immediately.
    @raise Pressure when allocation is impossible.
    @raise Invalid_argument when a virtual register's class is not in the
    machine's register file, or a virtual register's id is negative (ids
    are dense from 0, as {!Target.Machine.fresh_vreg} mints them: the
    allocator's tables are arrays indexed by id). *)

val extend : (int * int) list -> int * int -> int * int
(** [extend spans (lo, hi)] widens a lifetime over every loop span
    [(start, stop)] it straddles, to a fixpoint; a lifetime inside a span
    is unchanged. *)

val spills_inserted : before:Target.Asm.t -> after:Target.Asm.t -> int
(** Instruction-count delta (reporting). *)
