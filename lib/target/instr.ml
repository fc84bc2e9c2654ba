(* Machine instructions: an opcode plus typed operands, with the def/use
   information the optimizer passes need and the size/timing attributes the
   compaction and timing layers read.  Operands distinguish physical
   registers from virtual ones (pre register allocation), direct memory
   references from register-indirect ones with post-update addressing. *)

type update = No_update | Post_inc | Post_dec

type reg = { cls : string; idx : int }
type vreg = { vcls : string; vid : int }

type operand =
  | Reg of reg
  | Vreg of vreg
  | Imm of int
  | Adr of Ir.Mref.t  (** the address of a memory cell, as an immediate *)
  | Dir of Ir.Mref.t  (** direct memory operand *)
  | Ind of operand * update * Ir.Mref.t option
      (** register-indirect with optional post-update; the [Mref.t] records
          which stream the address register walks, for dependence analysis *)

type t = {
  opcode : string;
  operands : operand list;
  defs : operand list;
  uses : operand list;
  words : int;
  cycles : int;
  funit : string;
  mode_req : (string * int) option;
  mode_set : (string * int) option;
}

let make ?(operands = []) ?(defs = []) ?(uses = []) ?(words = 1) ?cycles
    ?(funit = "alu") ?mode_req ?mode_set opcode =
  let cycles = match cycles with Some c -> c | None -> words in
  { opcode; operands; defs; uses; words; cycles; funit; mode_req; mode_set }

let reg cls idx = Reg { cls; idx }
let vreg vcls vid = Vreg { vcls; vid }

(* Rewrite every operand, including the register inside an indirect operand.
   The inner operand is rewritten first, then [f] sees the rebuilt indirect
   as a whole, so substitutions work at either level. *)
let rec map_operand f o =
  match o with
  | Ind (inner, u, over) -> f (Ind (map_operand f inner, u, over))
  | Reg _ | Vreg _ | Imm _ | Adr _ | Dir _ -> f o

let map_operands f i =
  {
    i with
    operands = List.map (map_operand f) i.operands;
    defs = List.map (map_operand f) i.defs;
    uses = List.map (map_operand f) i.uses;
  }

let rec vregs_of_operand = function
  | Vreg v -> [ v ]
  | Ind (inner, _, _) -> vregs_of_operand inner
  | Reg _ | Imm _ | Adr _ | Dir _ -> []

let rec add_operand b = function
  | Reg r ->
    Buffer.add_string b r.cls;
    Ir.Decimal.add_int b r.idx
  | Vreg v ->
    Buffer.add_char b '%';
    Buffer.add_string b v.vcls;
    Ir.Decimal.add_int b v.vid
  | Imm k ->
    Buffer.add_char b '#';
    Ir.Decimal.add_int b k
  | Adr r ->
    Buffer.add_char b '&';
    Ir.Mref.add_to_buffer b r
  | Dir r -> Ir.Mref.add_to_buffer b r
  | Ind (inner, u, _) -> (
    Buffer.add_char b '*';
    add_operand b inner;
    match u with
    | No_update -> ()
    | Post_inc -> Buffer.add_char b '+'
    | Post_dec -> Buffer.add_char b '-')

let operand_to_string o =
  let b = Buffer.create 16 in
  add_operand b o;
  Buffer.contents b

(* The opcode padded to six columns, then the operands. *)
let add_to_buffer b i =
  Buffer.add_string b i.opcode;
  match i.operands with
  | [] -> ()
  | o :: os ->
    for _ = String.length i.opcode to 5 do
      Buffer.add_char b ' '
    done;
    Buffer.add_char b ' ';
    add_operand b o;
    List.iter
      (fun o ->
        Buffer.add_string b ", ";
        add_operand b o)
      os

let to_string i =
  match i.operands with
  | [] -> i.opcode
  | _ :: _ ->
    let b = Buffer.create 32 in
    add_to_buffer b i;
    Buffer.contents b

let pp ppf i = Format.pp_print_string ppf (to_string i)
