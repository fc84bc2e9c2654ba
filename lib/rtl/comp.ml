type alu_op = Fadd | Fsub | Fmul | Fand | For_ | Fxor | Fpass_a | Fpass_b

type kind =
  | Register
  | Memory of int
  | Alu of (int * alu_op) list
  | Mux of int
  | Constant of int
  | Field of int * int

type t = { name : string; kind : kind }

let inputs c =
  match c.kind with
  | Register -> [ "d"; "we" ]
  | Memory _ -> [ "addr"; "din"; "we" ]
  | Alu _ -> [ "a"; "b"; "sel" ]
  | Mux n -> List.init n (Printf.sprintf "in%d") @ [ "sel" ]
  | Constant _ | Field _ -> []

let outputs c =
  match c.kind with
  | Register -> [ "q" ]
  | Memory _ -> [ "dout" ]
  | Alu _ -> [ "f" ]
  | Mux _ -> [ "out" ]
  | Constant _ | Field _ -> [ "out" ]

let is_storage c =
  match c.kind with
  | Register | Memory _ -> true
  | Alu _ | Mux _ | Constant _ | Field _ -> false

let eval_alu op a b =
  match op with
  | Fadd -> a + b
  | Fsub -> a - b
  | Fmul -> a * b
  | Fand -> a land b
  | For_ -> a lor b
  | Fxor -> a lxor b
  | Fpass_a -> a
  | Fpass_b -> b

let kind_to_string = function
  | Register -> "reg"
  | Memory n -> Printf.sprintf "mem[%d]" n
  | Alu ops -> Printf.sprintf "alu(%d fns)" (List.length ops)
  | Mux n -> Printf.sprintf "mux%d" n
  | Constant k -> Printf.sprintf "const %d" k
  | Field (lo, hi) -> Printf.sprintf "ir[%d:%d]" hi lo

let pp ppf c = Format.fprintf ppf "%s : %s" c.name (kind_to_string c.kind)
