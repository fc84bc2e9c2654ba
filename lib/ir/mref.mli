(** Memory references.

    A reference names a declared storage location: a scalar, a constant array
    element, or an array element indexed by a loop induction variable plus a
    constant offset. Induction-variable references are what the offset
    assignment / AGU optimization turns into auto-increment accesses. *)

type index =
  | Direct  (** a scalar variable *)
  | Elem of int  (** [base\[k\]] with constant [k >= 0] *)
  | Induct of { ivar : string; offset : int; step : int }
      (** [base\[offset + step*ivar\]] inside a loop over [ivar]; [step] is
          [+1] (ascending stream) or [-1] (descending, e.g. the reversed
          signal access of a convolution) *)

type t = { base : string; index : index }

val scalar : string -> t
val elem : string -> int -> t

val induct : ?offset:int -> ?step:int -> string -> ivar:string -> t
(** @raise Invalid_argument unless [step] is [1] (default) or [-1]. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val ivars : t -> string list
(** Induction variables the reference depends on (empty or singleton). *)

val to_string : t -> string
(** [a], [a[3]], [a[i]], [a[i+1]], [a[i-1]]; a descending stream prints
    as [x[15-i]]. *)

val add_to_buffer : Buffer.t -> t -> unit
(** Appends {!to_string}'s text. *)

val pp : Format.formatter -> t -> unit
