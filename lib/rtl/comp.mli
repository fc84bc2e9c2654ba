(** RT-level components (paper §4.3.2: "some ASIPs may be defined at that
    level", Fig. 3).

    Components have named input and output ports; a netlist wires outputs to
    inputs. Control inputs (register write enables, ALU function selects,
    mux selects) are meant to be driven by instruction-register fields or
    constants — that is what instruction-set extraction justifies. *)

(** ALU functions. [Pass_a]/[Pass_b] make the ALU transparent, which is how
    plain loads and stores arise from a single data path. *)
type alu_op =
  | Fadd
  | Fsub
  | Fmul
  | Fand
  | For_
  | Fxor
  | Fpass_a
  | Fpass_b

type kind =
  | Register
      (** ports: in [d], [we] (control); out [q]. Loads [d] when [we]=1. *)
  | Memory of int
      (** RAM of the given size. Ports: in [addr], [din], [we]; out [dout]. *)
  | Alu of (int * alu_op) list
      (** function table: select code -> operation. Ports: in [a], [b],
          [sel] (control); out [f]. *)
  | Mux of int
      (** [n]-way multiplexer. Ports: in [in0..in(n-1)], [sel] (control);
          out [out]. *)
  | Constant of int  (** port: out [out]. *)
  | Field of int * int
      (** instruction-register bit field [lo..hi] (inclusive). Port: out
          [out]. The compiler may set these bits freely — they are the
          instruction encoding. *)

type t = { name : string; kind : kind }

val inputs : t -> string list
val outputs : t -> string list
val is_storage : t -> bool
(** Registers and memories — the endpoints of instruction-set extraction. *)

val eval_alu : alu_op -> int -> int -> int

val pp : Format.formatter -> t -> unit
