(* Architectural state for the instruction-level simulator: data memory,
   register classes, machine modes, and a cycle counter.  Memory cells wrap
   to the machine word width on store; registers hold exact values (real
   accumulators are wider than a memory word, and the evaluation contract
   keeps intermediates in range anyway).

   Registers and modes live in dense int arrays indexed by a process-wide
   interning table, not in per-state hash tables.  The compiled simulator
   ([Sim.Compile]) resolves a register name to its slot once at translation
   time and the staged closure then runs on raw array accesses; the unstaged
   [get_reg]/[set_reg] entry points pay the interning lookup per call, which
   is the interpretive engine's (acceptable) price for re-staging every
   instruction.  The interning tables are append-only immutable maps swapped
   with a compare-and-set, so staging is safe from any domain and the hot
   path never takes a lock. *)

module Rmap = Map.Make (struct
  type t = Instr.reg

  let compare = Stdlib.compare
end)

module Smap = Map.Make (String)

let reg_table : (int Rmap.t * int) Atomic.t = Atomic.make (Rmap.empty, 0)
let mode_table : (int Smap.t * int) Atomic.t = Atomic.make (Smap.empty, 0)

let rec reg_slot (r : Instr.reg) =
  let ((m, n) as cur) = Atomic.get reg_table in
  match Rmap.find_opt r m with
  | Some s -> s
  | None ->
    if Atomic.compare_and_set reg_table cur (Rmap.add r n m, n + 1) then n
    else reg_slot r

let rec mode_slot (name : string) =
  let ((m, n) as cur) = Atomic.get mode_table in
  match Smap.find_opt name m with
  | Some s -> s
  | None ->
    if Atomic.compare_and_set mode_table cur (Smap.add name n m, n + 1) then n
    else mode_slot name

(* Modes hold small ints (0/1 in every current machine); [absent] marks a
   mode the state has never seen so [get_mode] can fail on it. *)
let absent = min_int

type t = {
  width : int;
  layout : Layout.t;
  mem : int array;
  mutable rfile : int array; (* register values by global slot; default 0 *)
  mutable mfile : int array; (* mode values by global slot; [absent] = unset *)
  mutable cycles : int;
  (* queued post-updates as parallel (register slot, delta) arrays in FIFO
     order — a preallocated buffer, not a list, so the post-modify hot path
     never allocates; see [apply_updates] *)
  mutable pend_n : int;
  mutable pend_slots : int array;
  mutable pend_deltas : int array;
}

(* Word copies between int arrays.  [Array.blit] and [Array.sub] cannot
   tell an int array from an array of pointers, so once the destination is
   in the major heap (more than 256 words, as in every state of a loop over
   a few hundred elements) they pass each word through [caml_modify] or
   [caml_initialize]; a loop over int-typed arrays is plain loads and
   stores. *)
let copy_ints (src : int array) src_pos (dst : int array) dst_pos n =
  if
    n < 0 || src_pos < 0 || dst_pos < 0
    || src_pos > Array.length src - n
    || dst_pos > Array.length dst - n
  then invalid_arg "Mstate.copy_ints";
  for i = 0 to n - 1 do
    Array.unsafe_set dst (dst_pos + i) (Array.unsafe_get src (src_pos + i))
  done

let grown a n fill =
  let b = Array.make (max n (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

let write_slot_slow t s v =
  t.rfile <- grown t.rfile (s + 1) 0;
  t.rfile.(s) <- v

let read_slot t s =
  let a = t.rfile in
  if s < Array.length a then Array.unsafe_get a s else 0

let write_slot t s v =
  let a = t.rfile in
  if s < Array.length a then Array.unsafe_set a s v else write_slot_slow t s v

let mode_read_slot t s =
  let a = t.mfile in
  if s < Array.length a then Array.unsafe_get a s else absent

let mode_write_slot t s v =
  let a = t.mfile in
  if s < Array.length a then Array.unsafe_set a s v
  else begin
    t.mfile <- grown a (s + 1) absent;
    t.mfile.(s) <- v
  end

let push_update_slow t s d =
  t.pend_slots <- grown t.pend_slots (max 8 (t.pend_n + 1)) 0;
  t.pend_deltas <- grown t.pend_deltas (max 8 (t.pend_n + 1)) 0;
  t.pend_slots.(t.pend_n) <- s;
  t.pend_deltas.(t.pend_n) <- d;
  t.pend_n <- t.pend_n + 1

let push_update t s d =
  let n = t.pend_n in
  if n < Array.length t.pend_slots then begin
    Array.unsafe_set t.pend_slots n s;
    Array.unsafe_set t.pend_deltas n d;
    t.pend_n <- n + 1
  end
  else push_update_slow t s d

(* Mode and pending-update arrays start as a shared empty array and are
   only allocated on first write (every write path grows through [grown],
   never mutating the shared empty) — most states never queue a post-modify
   or touch a mode, and state creation is on the compiled engine's per-run
   path. *)
let no_ints : int array = [||]

let create ?(width = 16) ~layout ~modes () =
  let t =
    {
      width;
      layout;
      mem = Array.make (max 1 (Layout.total_size layout)) 0;
      rfile = Array.make (max 8 (snd (Atomic.get reg_table))) 0;
      mfile = no_ints;
      cycles = 0;
      pend_n = 0;
      pend_slots = no_ints;
      pend_deltas = no_ints;
    }
  in
  List.iter (fun (m, v) -> mode_write_slot t (mode_slot m) v) modes;
  t

let wrap width v =
  let m = 1 lsl width in
  let v = v land (m - 1) in
  if v >= m lsr 1 then v - m else v

let store t addr v = t.mem.(addr) <- wrap t.width v
let load t addr = t.mem.(addr)
let get_reg t r = read_slot t (reg_slot r)
let set_reg t r v = write_slot t (reg_slot r) v

let unknown_mode m = invalid_arg ("Mstate: unknown mode " ^ m)

let get_mode t m =
  let v = mode_read_slot t (mode_slot m) in
  if v = absent then unknown_mode m else v

let set_mode t m v = mode_write_slot t (mode_slot m) v

let get_var t name =
  let e = Layout.find t.layout name in
  let values = Array.make e.Layout.size 0 in
  copy_ints t.mem e.Layout.addr values 0 e.Layout.size;
  values

(* [set_var] with the layout entry already resolved — the compiled engine
   looks entries up once per plan instead of once per run.  A write never
   runs past the variable into its neighbour in the layout. *)
let blit_entry t (e : Layout.entry) values =
  let n = Array.length values in
  if n > e.Layout.size then
    invalid_arg
      (Printf.sprintf "Mstate: %s holds %d values, got %d" e.Layout.name
         e.Layout.size n);
  copy_ints values 0 t.mem e.Layout.addr n

let set_var t name values = blit_entry t (Layout.find t.layout name) values

let add_cycles t n = t.cycles <- t.cycles + n
let cycles t = t.cycles

let vreg_error () =
  invalid_arg "Mstate: virtual register reached the simulator"

(* Post-modify addressing updates the address register AFTER the instruction
   completes, like the AGU hardware: every operand of one instruction reads
   the pre-instruction register state, even when two operands walk the same
   register (e.g. squaring a stream element with [MAC *ar0, *ar0+]).
   Operand reads queue their updates here; the simulator applies the queue
   at each instruction boundary ([apply_updates]). *)
let post_update t inner u =
  match (inner, u) with
  | _, Instr.No_update -> ()
  | Instr.Reg r, Instr.Post_inc -> push_update t (reg_slot r) 1
  | Instr.Reg r, Instr.Post_dec -> push_update t (reg_slot r) (-1)
  | _ -> vreg_error ()

let apply_updates t =
  let n = t.pend_n in
  if n > 0 then begin
    for k = 0 to n - 1 do
      let s = Array.unsafe_get t.pend_slots k in
      write_slot t s (read_slot t s + Array.unsafe_get t.pend_deltas k)
    done;
    t.pend_n <- 0
  end

let rec read_operand t (o : Instr.operand) =
  match o with
  | Instr.Reg r -> get_reg t r
  | Instr.Imm k -> k
  | Instr.Dir r -> load t (Layout.address t.layout r ~ienv:[])
  | Instr.Adr r -> Layout.base_address t.layout r
  | Instr.Ind (inner, u, _) ->
    let addr = read_operand t inner in
    let v = load t addr in
    post_update t inner u;
    v
  | Instr.Vreg _ -> vreg_error ()

let write_operand t (o : Instr.operand) v =
  match o with
  | Instr.Reg r -> set_reg t r v
  | Instr.Dir r -> store t (Layout.address t.layout r ~ienv:[]) v
  | Instr.Ind (inner, u, _) ->
    let addr = read_operand t inner in
    store t addr v;
    post_update t inner u
  | Instr.Vreg _ -> vreg_error ()
  | Instr.Imm _ | Instr.Adr _ ->
    invalid_arg "Mstate: cannot write to an immediate operand"

(* ---- staged operand access ---------------------------------------------- *)

(* The compiled simulator ([Sim.Compile]) resolves each operand's shape once
   at translation time instead of re-dispatching on every execution: a
   reader/writer is a closure with the constructor match, the operand-list
   walks, the register-slot interning and the layout lookup already done.
   A staged closure holds no mutable state of its own, so one translated
   program can run on many states, from any domain, as long as each state
   was created on the layout the closure was staged for. *)

let reg_reader r =
  let s = reg_slot r in
  fun t -> read_slot t s

let reg_writer r =
  let s = reg_slot r in
  fun t v -> write_slot t s v

let mode_reader name =
  let s = mode_slot name in
  fun t ->
    let v = mode_read_slot t s in
    if v = absent then unknown_mode name else v

(* [reader layout o] and [writer layout o] resolve [Dir] and [Adr]
   addresses against [layout] once, here.  A reference the layout cannot
   resolve (an unknown variable, an index out of bounds, an induction
   variable the simulator has no value for) raises what [read_operand]
   would, when the operand is accessed and not before, so both engines fail
   at the same instruction. *)
let rec reader layout (o : Instr.operand) : t -> int =
  match o with
  | Instr.Reg r -> reg_reader r
  | Instr.Imm k -> fun _ -> k
  | Instr.Dir r -> (
    match Layout.address layout r ~ienv:[] with
    | addr -> fun t -> load t addr
    | exception ((Not_found | Invalid_argument _) as e) -> fun _ -> raise e)
  | Instr.Adr r -> (
    match Layout.base_address layout r with
    | addr -> fun _ -> addr
    | exception (Not_found as e) -> fun _ -> raise e)
  | Instr.Ind (Instr.Reg r, u, _) -> (
    (* register-indirect: the dominant AGU shape — fully flattened, no
       inner-reader closure *)
    let s = reg_slot r in
    match u with
    | Instr.No_update -> fun t -> load t (read_slot t s)
    | Instr.Post_inc ->
      fun t ->
        let v = load t (read_slot t s) in
        push_update t s 1;
        v
    | Instr.Post_dec ->
      fun t ->
        let v = load t (read_slot t s) in
        push_update t s (-1);
        v)
  | Instr.Ind (inner, u, _) -> (
    let rd_inner = reader layout inner in
    match u with
    | Instr.No_update -> fun t -> load t (rd_inner t)
    | _ ->
      fun t ->
        let v = load t (rd_inner t) in
        post_update t inner u;
        v)
  | Instr.Vreg _ -> fun _ -> vreg_error ()

let writer layout (o : Instr.operand) : t -> int -> unit =
  match o with
  | Instr.Reg r -> reg_writer r
  | Instr.Dir r -> (
    match Layout.address layout r ~ienv:[] with
    | addr -> fun t v -> store t addr v
    | exception ((Not_found | Invalid_argument _) as e) -> fun _ _ -> raise e)
  | Instr.Ind (Instr.Reg r, u, _) -> (
    let s = reg_slot r in
    match u with
    | Instr.No_update -> fun t v -> store t (read_slot t s) v
    | Instr.Post_inc ->
      fun t v ->
        store t (read_slot t s) v;
        push_update t s 1
    | Instr.Post_dec ->
      fun t v ->
        store t (read_slot t s) v;
        push_update t s (-1))
  | Instr.Ind (inner, u, _) -> (
    let rd_inner = reader layout inner in
    match u with
    | Instr.No_update -> fun t v -> store t (rd_inner t) v
    | _ ->
      fun t v ->
        store t (rd_inner t) v;
        post_update t inner u)
  | Instr.Vreg _ -> fun _ _ -> vreg_error ()
  | Instr.Imm _ | Instr.Adr _ ->
    fun _ _ -> invalid_arg "Mstate: cannot write to an immediate operand"
