(** Simple offset assignment (§3.3, Bartley / Liao / Leupers).

    With an address register that auto-increments/decrements for free,
    laying variables out so that consecutively accessed variables sit at
    adjacent addresses removes explicit address-register loads. Given an
    access sequence, the classic SOA heuristic (Liao's greedy maximum-weight
    path cover of the access graph) chooses the layout order. *)

type result = {
  order : string list;  (** chosen memory order of the variables *)
  declared_cost : int;  (** AR reloads with declaration order *)
  soa_cost : int;  (** AR reloads with the chosen order *)
}

val cost : order:string list -> string list -> int
(** Number of access transitions that are NOT reachable by a single
    auto-increment/decrement under the given layout order (each costs an
    explicit address load). The first access is free. *)

val solve : vars:string list -> string list -> result
(** Liao's greedy path cover over the access graph of the sequence: edges by
    descending weight, accepted when both endpoints have degree < 2 and no
    cycle forms; the resulting paths concatenated (remaining variables in
    declaration order) give the layout. The heuristic never regresses: when
    its order costs more than the declaration order, the declaration order
    is returned. *)

val access_sequence : Ir.Prog.t -> string list
(** The program's scalar-variable access sequence in evaluation order
    (array and induction accesses are skipped — they go through AGU
    streams, not through the SOA address register). *)
