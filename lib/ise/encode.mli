(** Binary encoding of compiled code for a generated machine, and execution
    of the encoded program on the netlist itself.

    This closes the loop of Fig. 2/3: code selected by the generated
    compiler is assembled into instruction words using the justified bit
    settings, and those words drive the RT-level simulator — so the
    extracted instruction set is validated against the hardware model it
    came from. *)

exception Encode_error of string

val assemble :
  Rtl.Netlist.t -> layout:Target.Layout.t -> Target.Asm.t -> int list
(** The whole (loop-free) program as instruction words.
    @raise Encode_error on loops or unknown opcodes. *)

val run_on_netlist :
  Rtl.Netlist.t ->
  layout:Target.Layout.t ->
  inputs:(string * int array) list ->
  ?pool:(string * int) list ->
  Target.Asm.t ->
  Rtl.Rtsim.state
(** Assembles the program, initializes the netlist's (single) memory from
    the layout, the inputs, and the constant pool, and steps the RT
    simulator through every word. *)

val read_var :
  Rtl.Netlist.t -> Rtl.Rtsim.state -> layout:Target.Layout.t -> string
  -> int array
(** Reads a laid-out variable back from the netlist memory. *)
