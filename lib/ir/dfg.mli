(** Data-flow graphs for straight-line blocks (paper Fig. 4).

    A graph value-numbers the expressions of a statement block so that common
    subexpressions are shared, then decomposes the graph back into data-flow
    {e trees} — the "heuristic decomposition of graphs into trees" most
    code-selection approaches use (§4.3.3): each node with several uses is cut
    out into a compiler temporary. *)

type t

val of_block : Prog.stmt list -> t
(** Builds the shared graph for the block, with conservative aliasing: a
    write to any element of a base invalidates all pending reads of it. *)

val shared_count : t -> int
(** Nodes with more than one use — the cut points of the decomposition. *)

val to_stmts : t -> Prog.stmt list * Prog.decl list
(** Decomposition into trees: returns a semantically equivalent statement
    list in which every shared interior node has been replaced by an
    assignment to a fresh temporary ([$cse0], [$cse1], ...), plus the
    declarations of those temporaries. Leaf nodes (constants and
    references) are never cut. *)

val decompose : Prog.stmt list -> Prog.stmt list * Prog.decl list
(** [of_block] followed by [to_stmts]. *)
