exception Too_many_streams of string
exception Unsupported of string

(* A stream is one (base, offset) walked by the loop's induction variable. *)
module Stream = struct
  type t = { base : string; offset : int; step : int }

  let compare = Stdlib.compare
end

module Smap = Map.Make (Stream)

let stream_of ivar (r : Ir.Mref.t) =
  match r.index with
  | Ir.Mref.Induct { ivar = v; offset; step } when v = ivar ->
    Some { Stream.base = r.base; offset; step }
  | Ir.Mref.Induct _ | Ir.Mref.Direct | Ir.Mref.Elem _ -> None

(* All induction operand occurrences of an instruction for [ivar]. *)
let instr_streams ivar (i : Target.Instr.t) =
  let rec of_operand acc op =
    match op with
    | Target.Instr.Dir r -> (
      match stream_of ivar r with Some s -> s :: acc | None -> acc)
    | Target.Instr.Ind (ar, _, _) -> of_operand acc ar
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
    | Target.Instr.Adr _ ->
      acc
  in
  List.fold_left of_operand []
    (i.Target.Instr.operands @ i.Target.Instr.defs @ i.Target.Instr.uses)

let check_no_foreign_induct ivar (i : Target.Instr.t) =
  let check (r : Ir.Mref.t) =
    match r.index with
    | Ir.Mref.Induct { ivar = v; _ } when v <> ivar ->
      raise
        (Unsupported
           (Printf.sprintf
              "Agu.lower_loop: reference %s uses induction variable of an \
               outer loop"
              (Ir.Mref.to_string r)))
    | Ir.Mref.Induct _ | Ir.Mref.Direct | Ir.Mref.Elem _ -> ()
  in
  let rec of_operand op =
    match op with
    | Target.Instr.Dir r -> check r
    | Target.Instr.Ind (ar, _, _) -> of_operand ar
    | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
    | Target.Instr.Adr _ ->
      ()
  in
  List.iter of_operand
    (i.Target.Instr.operands @ i.Target.Instr.defs @ i.Target.Instr.uses)

(* Rewrites one loop body: returns (pre-loop init instructions, new body,
   stream count). *)
let lower_loop (agu : Target.Machine.agu_support) ctx ivar body =
  (* Collect streams in body order, counting occurrences. *)
  let order = ref [] in
  let occurrences = ref Smap.empty in
  let note s =
    if not (Smap.mem s !occurrences) then order := s :: !order;
    occurrences :=
      Smap.update s
        (fun n -> Some (Option.value ~default:0 n + 1))
        !occurrences
  in
  List.iter
    (function
      | Target.Asm.Op i ->
        check_no_foreign_induct ivar i;
        List.iter note (List.rev (instr_streams ivar i))
      | Target.Asm.Par is ->
        List.iter
          (fun i ->
            check_no_foreign_induct ivar i;
            List.iter note (List.rev (instr_streams ivar i)))
          is
      | Target.Asm.Loop _ -> ())
    body;
  let streams = List.rev !order in
  if List.length streams + 1 > agu.Target.Machine.ar_limit then
    raise
      (Too_many_streams
         (Printf.sprintf "loop over %s needs %d address streams (+1 counter), AGU has %d registers"
            ivar (List.length streams) agu.Target.Machine.ar_limit));
  (* One AR per stream, initialized to the stream's first address. *)
  let ar_of =
    List.fold_left
      (fun m s ->
        let v = Target.Machine.fresh_vreg ctx agu.Target.Machine.ar_cls in
        let r =
          { Ir.Mref.base = s.Stream.base;
            index =
              Ir.Mref.Induct
                { ivar; offset = s.Stream.offset; step = s.Stream.step } }
        in
        agu.Target.Machine.load_ar ctx v r;
        Smap.add s v m)
      Smap.empty streams
  in
  let inits = Target.Machine.drain ctx in
  (* Rewrite accesses: every occurrence indirect; the last occurrence of each
     stream per iteration carries the post-increment. *)
  let remaining = ref !occurrences in
  let rewrite_instr i =
    let rewrite op =
      match op with
      | Target.Instr.Dir r -> (
        match stream_of ivar r with
        | None -> op
        | Some s ->
          let v = Smap.find s ar_of in
          let n = Smap.find s !remaining in
          remaining := Smap.add s (n - 1) !remaining;
          let update =
            if n > 1 then Target.Instr.No_update
            else if s.Stream.step = 1 then Target.Instr.Post_inc
            else Target.Instr.Post_dec
          in
          Target.Instr.Ind (Target.Instr.Vreg v, update, Some r))
      | Target.Instr.Reg _ | Target.Instr.Vreg _ | Target.Instr.Imm _
      | Target.Instr.Adr _ | Target.Instr.Ind _ ->
        op
    in
    Target.Instr.map_operands rewrite i
  in
  let body' =
    List.map
      (function
        | Target.Asm.Op i -> Target.Asm.Op (rewrite_instr i)
        | Target.Asm.Par is -> Target.Asm.Par (List.map rewrite_instr is)
        | Target.Asm.Loop _ as l -> l)
      body
  in
  (inits, body', List.length streams)
