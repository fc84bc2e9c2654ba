(** Minimal JSON: the wire format of the driver's job protocol.

    The encoder is deliberately deterministic — object fields print in
    construction order, strings escape the same bytes the same way, floats
    render with a fixed format — so two structurally equal values always
    serialize to identical bytes. That determinism is what lets CI compare
    batch runs with [cmp] and what the cache's provenance records rely on.

    The parser is a plain recursive-descent reader for the jobs files the
    [record batch] subcommand consumes. It accepts standard JSON (objects,
    arrays, strings, numbers, booleans, null) and reports errors with byte
    offsets. No external dependency: the container's opam switch has no
    JSON library, and the protocol is small. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : ?indent:bool -> t -> string
(** Serialize. [indent] pretty-prints with two-space indentation; both
    modes are byte-deterministic for equal values. *)

val pp : Format.formatter -> t -> unit
(** [to_string ~indent:true] behind a formatter. *)

val of_string : string -> (t, string) result
(** Parse a complete JSON document; [Error] carries a byte offset. *)

(** {1 Accessors} — total, option-returning. *)

val member : string -> t -> t option
(** Field of an object; [None] on missing field or non-object. *)

val to_int : t -> int option

val to_string_lit : t -> string option
(** The payload of a [String]. *)

val to_list : t -> t list option
val to_bool : t -> bool option
