(** Decimal integers written straight into a buffer. *)

val add_int : Buffer.t -> int -> unit
(** [add_int b n] appends exactly [string_of_int n] ([min_int] included),
    without building the string: [string_of_int] formats through C
    [format_int], which dominates the digest and listing texts that print
    many small numbers. *)
