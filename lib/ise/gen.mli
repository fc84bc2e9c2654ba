(** Compiler generation from register-transfer instruction sets.

    [of_transfers] is the generic generator: given the transfers (from
    instruction-set extraction, or from a textual machine description — see
    the [mdl] library), it builds the selection rules, store, register
    file, and executable semantics. Each register-destination transfer is
    a rule whose emitter is {!Target.Machine.instr} of the transfer (its
    instruction, with its words and cycles), and each store a spill chain
    rule. Control structure is not part of a transfer
    set, so counted-loop and address-stream support are synthesized on
    request over a declared register class ([LDC]/[DJNZ]/[LDAR] pseudo
    instructions with fixed semantics).

    [machine] is the Fig. 2 path: netlist -> extraction -> [of_transfers]
    (data path only: no loops, direct addressing). *)

exception Unsupported of string
(** The instruction set cannot support compilation (e.g. no way to store a
    register to memory, or no load). This is {!Target.Machine.Unsupported}:
    a generated machine raises it while emitting a construct it lacks (a
    loop without declared loop control, an immediate without an
    immediate load), and {!Record.Pipeline.compile} reports that as
    [Pipeline.Error]. *)

val of_transfers :
  name:string ->
  description:string ->
  registers:string list ->
  ?counter:string * int ->
  ?agu_limit:int ->
  Transfer.t list ->
  Target.Machine.t
(** [registers] are the singleton data-register classes (the transfers'
    [Reg] names). [counter], when given as [(class, count)], adds a
    register class of that size plus synthesized loop control ([LDC c,#n]
    … [DJNZ c], 2 words) and — with [agu_limit] — address-stream support
    ([LDAR a,&sym], post-updating indirect access).
    @raise Unsupported when the transfer set is not compilable. *)

val machine : Rtl.Netlist.t -> Target.Machine.t
(** Extracts the netlist's instruction set and generates its compiler.
    @raise Unsupported when the extracted set is not compilable. *)

val rules_of_transfers : Transfer.t list -> Burg.Rule.t list
(** The "ISE output to iburg input format" conversion alone (Fig. 2):
    selection rules for the register-destination transfers plus spill
    chain rules from the store transfers, without their emitters. These
    are the rules {!of_transfers} pairs with emitters (after the shared
    memory-leaf rules), in the same order. Exposed for inspection and
    tests. *)
