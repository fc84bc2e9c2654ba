(** Programs: declarations plus a body of assignments and counted loops.

    This is the flow-graph-level representation RECORD compiles: DSP kernels
    are straight-line code and perfectly nested counted loops. *)

type storage =
  | Input  (** initialized by the environment before the program runs *)
  | Output  (** produced by the program *)
  | Temp  (** internal variable, starts at 0 *)

type decl = {
  name : string;
  size : int;  (** 1 for scalars, [n] for arrays *)
  storage : storage;
}

type stmt = { dst : Mref.t; src : Tree.t }

type item =
  | Stmt of stmt
  | Loop of loop

and loop = { ivar : string; count : int; body : item list }

type t = { name : string; decls : decl list; body : item list }

val scalar_decl : ?storage:storage -> string -> decl
val array_decl : ?storage:storage -> string -> int -> decl

val assign : Mref.t -> Tree.t -> item
val loop : string -> int -> item list -> item

val make : name:string -> decls:decl list -> item list -> t
(** Builds a program and checks it is well formed (see {!validate}).
    @raise Invalid_argument on a malformed program. *)

val validate : t -> (unit, string) result
(** Checks that every reference names a declaration, constant indices are in
    bounds, induction variables are in scope and their offsets keep accesses
    in bounds, loop variables do not shadow, and outputs are not read before
    written at top level. *)

val stmts : t -> stmt list
(** All statements in program order (loop bodies once). *)

val find_decl : t -> string -> decl option

val check_inputs : t -> (string * int array) list -> (unit, string) result
(** {!Eval.env_set}'s rule for a whole input list: every name is declared
    by the program, with exactly its size in values. The error names the
    first offending input, e.g. [input "x0" has 5 values, fir declares 1]. *)

val pp : Format.formatter -> t -> unit

val fold_digest : Buffer.t -> t -> unit
(** Folds a stable, collision-resistant structural encoding of the program
    into [buf]: every field of every declaration, statement, and tree node,
    tagged and length-prefixed. Two programs fold equal content exactly when
    they are structurally equal. This is the cache-key substrate — it never
    touches [Hashtbl.hash] or printer output. *)

val digest : t -> string
(** Hex MD5 of the {!fold_digest} encoding. *)
