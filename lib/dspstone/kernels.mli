(** The ten DSPStone kernels of the paper's Table 1, as DFL source.

    Parameters follow the benchmark's defaults: N = 16 taps/updates, 4
    biquad sections. Two departures from the original C formulations, both
    forced by the eight address registers of the C25-class AGU and recorded
    in DESIGN.md: [n_complex_updates] runs as two passes (real parts, then
    imaginary parts), and complex numbers live in separate re/im arrays. *)

type t = {
  name : string;
  source : string;  (** DFL text *)
  inputs : (string * int array) list;
      (** deterministic input data, small enough that no intermediate
          exceeds the 16-bit contract *)
}

val all : t list
(** In the row order of Table 1. *)

val extended : t list
(** Kernels from the wider DSPStone suite beyond the paper's Table 1: the
    LMS adaptive filter and the 1x3 matrix multiply. *)

val find : string -> t
(** @raise Not_found *)

val prog : t -> Ir.Prog.t
(** Parse and lower the kernel's source.  A kernel of {!all} or
    {!extended} is lowered once per process and the program shared. *)

val reference_outputs : t -> (string * int array) list
(** What the reference interpreter computes on the kernel's inputs. *)
