(* Architectural state for the instruction-level simulator: data memory,
   register classes, machine modes, and a cycle counter.  Memory cells wrap
   to the machine word width on store; registers hold exact values (real
   accumulators are wider than a memory word, and the evaluation contract
   keeps intermediates in range anyway).  A mode is one more register
   ([mode_slot]): it reads 0 until written, so a mode the machine does not
   declare reads 0.

   Registers and modes live in one dense int array indexed by a
   process-wide interning table, not in per-state hash tables.  The compiled simulator
   ([Sim.Compile]) resolves a register name to its slot once at translation
   time and the staged closure then runs on raw array accesses; the unstaged
   [get_reg]/[set_reg] entry points pay the interning lookup per call, which
   is the interpretive engine's (acceptable) price for re-staging every
   instruction.  The interning table is an append-only immutable map swapped
   with a compare-and-set, so staging is safe from any domain and the hot
   path never takes a lock.

   Data memory comes two ways.  [create] gives a state its own array of
   exactly its layout's size, which the caller may keep.  [borrow] runs a
   function on a state whose memory is the calling domain's spare block,
   zeroed up to the layout's size and given back when the function
   returns: a simulated job then allocates no data image of its own.  A
   state records its layout's size, and [load] and [store] check addresses
   against it, so a longer borrowed block reads and writes exactly like an
   array of that size. *)

(* Registers, modes among them, compare on the index first, then the
   class name: two ints and a string, without the polymorphic [compare]
   walking the record.  The interpretive engine looks a slot up here for
   every register and mode an executed instruction names. *)
module Rmap = Map.Make (struct
  type t = Instr.reg

  let compare (a : Instr.reg) (b : Instr.reg) =
    let c = Int.compare a.Instr.idx b.Instr.idx in
    if c <> 0 then c else String.compare a.Instr.cls b.Instr.cls
end)

let reg_table : (int Rmap.t * int) Atomic.t = Atomic.make (Rmap.empty, 0)

let rec reg_slot (r : Instr.reg) =
  let ((m, n) as cur) = Atomic.get reg_table in
  match Rmap.find_opt r m with
  | Some s -> s
  | None ->
    if Atomic.compare_and_set reg_table cur (Rmap.add r n m, n + 1) then n
    else reg_slot r

(* Mode [m] is the register [m] at index -1: no register index is
   negative, so no register shares its slot. *)
let mode_slot m = reg_slot { Instr.cls = m; idx = -1 }

type t = {
  width : int;
  layout : Layout.t;
  size : int;  (* the layout's words (at least one): the addresses in range *)
  mem : int array;  (* [size] words, or a longer borrowed block *)
  mutable rfile : int array;
      (* register and mode values by global slot; default 0 *)
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

(* The pending-update arrays start as a shared empty array and are only
   allocated on first write (every write path grows through [grown], never
   mutating the shared empty) — most states never queue a post-modify, and
   state creation is on the compiled engine's per-run path.  The same empty
   array stands for "no spare block" in [borrow]. *)
let no_ints : int array = [||]

let make ~width ~layout ~modes ~size mem =
  let t =
    {
      width;
      layout;
      size;
      mem;
      rfile = Array.make (max 8 (snd (Atomic.get reg_table))) 0;
      cycles = 0;
      pend_n = 0;
      pend_slots = no_ints;
      pend_deltas = no_ints;
    }
  in
  List.iter (fun (m, v) -> write_slot t (mode_slot m) v) modes;
  t

let words layout = max 1 (Layout.total_size layout)

let create ?(width = 16) ~layout ~modes () =
  let size = words layout in
  make ~width ~layout ~modes ~size (Array.make size 0)

(* Each domain keeps one spare data-memory block.  The connection threads
   of [record serve] run jobs too, so two threads of one domain may
   simulate at once: [Atomic.exchange] hands the block to one of them and
   leaves the other the empty array, and a thread that finds no block
   large enough allocates one.  A block is kept only up to [max_spare]
   words, the C25's data space and each DSP56000 memory space; a larger
   image is allocated per run, as by [create]. *)
let max_spare = 65_536

let spare : int array Atomic.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Atomic.make no_ints)

let borrow ?(width = 16) ~layout ~modes f =
  let size = words layout in
  if size > max_spare then f (create ~width ~layout ~modes ())
  else begin
    let cell = Domain.DLS.get spare in
    let block = Atomic.exchange cell no_ints in
    let mem =
      if Array.length block < size then Array.make size 0
      else begin
        (* an int loop: [Array.fill] would pass each word of a block in the
           major heap through the write barrier *)
        for i = 0 to size - 1 do
          Array.unsafe_set block i 0
        done;
        block
      end
    in
    Fun.protect
      ~finally:(fun () -> Atomic.set cell mem)
      (fun () -> f (make ~width ~layout ~modes ~size mem))
  end

let wrap width v =
  let m = 1 lsl width in
  let v = v land (m - 1) in
  if v >= m lsr 1 then v - m else v

(* The addresses in range are the layout's, whatever the length of the
   block: an access past them fails as the array's own check would. *)
let out_of_bounds () = invalid_arg "index out of bounds"

let store t addr v =
  if addr < 0 || addr >= t.size then out_of_bounds ();
  Array.unsafe_set t.mem addr (wrap t.width v)

let load t addr =
  if addr < 0 || addr >= t.size then out_of_bounds ();
  Array.unsafe_get t.mem addr

let get_reg t r = read_slot t (reg_slot r)
let set_reg t r v = write_slot t (reg_slot r) v

let get_mode t m = read_slot t (mode_slot m)
let set_mode t m v = write_slot t (mode_slot m) v

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
   register (e.g. squaring a stream element with [MAC *ar0, *ar0+]).  The
   plain [reader]/[writer] queue their updates here, and the simulator
   applies the queue at each instruction boundary ([apply_updates]).  When
   nothing else in the instruction names the register, the update can land
   straight after the access instead, with the same result and no queue:
   see [updates_at_once] and [operand_reader]. *)
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

(* ---- staged operand access ---------------------------------------------- *)

(* Operands are read and written only through staged closures: a
   reader/writer has the constructor match, the register-slot interning
   and the layout lookup already done.  The compiled simulator
   ([Sim.Compile]) stages once per program, the interpretive one stages
   and runs each instruction as it executes.  A staged closure holds no
   mutable state of its own, so one translated program can run on many
   states, from any domain, as long as each state was created on the
   layout the closure was staged for. *)

let reg_reader r =
  let s = reg_slot r in
  fun t -> read_slot t s

let reg_writer r =
  let s = reg_slot r in
  fun t v -> write_slot t s v

(* [reader layout o] and [writer layout o] resolve [Dir] and [Adr]
   addresses against [layout] once, here.  A reference the layout cannot
   resolve (an unknown variable, an index out of bounds, an induction
   variable the simulator has no value for) raises [Layout]'s exception
   when the operand is accessed and not before, so both engines fail at
   the same instruction. *)
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

(* ---- post-modify at the operand ------------------------------------------ *)

(* Class names are short and differ in length more often than not. *)
let same_reg (a : Instr.reg) (b : Instr.reg) =
  a.Instr.idx = b.Instr.idx
  && String.length a.Instr.cls = String.length b.Instr.cls
  && String.equal a.Instr.cls b.Instr.cls

let rec names r (o : Instr.operand) =
  match o with
  | Instr.Reg r' -> same_reg r r'
  | Instr.Ind (inner, _, _) -> names r inner
  | Instr.Vreg _ | Instr.Imm _ | Instr.Adr _ | Instr.Dir _ -> false

let rec count_naming r = function
  | [] -> 0
  | o :: os -> (if names r o then 1 else 0) + count_naming r os

(* Streams are compared on every staged walk; a copy usually shares its
   walk's reference, so physical equality settles most. *)
let same_stream (a : Ir.Mref.t option) (b : Ir.Mref.t option) =
  match (a, b) with
  | None, None -> true
  | Some x, Some y -> x == y || Ir.Mref.equal x y
  | None, Some _ | Some _, None -> false

(* Every mention of [r] in [os] is a no-update copy of the walk over
   [stream]. *)
let rec only_copies r stream = function
  | [] -> true
  | o :: os ->
    (match o with
    | Instr.Ind (Instr.Reg r', Instr.No_update, s) when same_reg r r' ->
      same_stream stream s
    | _ -> not (names r o))
    && only_copies r stream os

(* The one decision, made at staging time: may operand [o] of instruction
   [i], an updating [Ind (Reg r, _, s)], post-modify [r] at once?  Yes
   when [o] is the only operand of [i] that names [r] and every mention
   of [r] in [defs] and [uses] is a no-update copy [Ind (Reg r, No_update,
   s)] — [Opt.Agu] leaves such a copy beside the walking operand for
   dependence analysis (tic25 [LT *ar0+] uses [*ar0]).  Descriptions
   reach memory through operands, never through such a copy, and read no
   address register that no operand names, so no other access of the
   instruction can see [r] move.  Two operands on one register
   ([RPTMAC #2, *ar0+, *ar0+], asip [MAC *ar0, *ar0+]), a bare [r]
   anywhere, a walk in [defs] or [uses], or a walk nested inside another
   indirect keep the queue. *)
let updates_at_once (i : Instr.t) (o : Instr.operand) =
  match o with
  | Instr.Ind (Instr.Reg r, (Instr.Post_inc | Instr.Post_dec), s) ->
    count_naming r i.Instr.operands = 1
    && only_copies r s i.Instr.defs
    && only_copies r s i.Instr.uses
  | Instr.Ind _ | Instr.Reg _ | Instr.Vreg _ | Instr.Imm _ | Instr.Adr _
  | Instr.Dir _ ->
    false

let rec walks (o : Instr.operand) =
  match o with
  | Instr.Ind (inner, u, _) -> u <> Instr.No_update || walks inner
  | Instr.Reg _ | Instr.Vreg _ | Instr.Imm _ | Instr.Adr _ | Instr.Dir _ ->
    false

let rec any_queues i = function
  | [] -> false
  | o :: os -> (walks o && not (updates_at_once i o)) || any_queues i os

(* Does some access of [i], staged through [operand_reader],
   [operand_writer] or [operand_adder], queue a post-modify?  The compiled
   simulator calls [apply_updates] after exactly those instructions. *)
let queues_update (i : Instr.t) =
  any_queues i i.Instr.operands
  || any_queues i i.Instr.defs
  || any_queues i i.Instr.uses

let delta = function
  | Instr.Post_inc -> 1
  | Instr.Post_dec -> -1
  | Instr.No_update -> 0

(* [reader] and [writer] for operand [o] of instruction [i]: the staging
   entry points of every description.  An access [updates_at_once] allows
   writes [r ± 1] straight after touching memory; any other operand gets
   the queuing [reader]/[writer]. *)
let operand_reader layout (i : Instr.t) (o : Instr.operand) : t -> int =
  match o with
  | Instr.Ind (Instr.Reg r, ((Instr.Post_inc | Instr.Post_dec) as u), _)
    when updates_at_once i o ->
    let s = reg_slot r and d = delta u in
    fun t ->
      let a = read_slot t s in
      let v = load t a in
      write_slot t s (a + d);
      v
  | _ -> reader layout o

let operand_writer layout (i : Instr.t) (o : Instr.operand) : t -> int -> unit
    =
  match o with
  | Instr.Ind (Instr.Reg r, ((Instr.Post_inc | Instr.Post_dec) as u), _)
    when updates_at_once i o ->
    let s = reg_slot r and d = delta u in
    fun t v ->
      let a = read_slot t s in
      store t a v;
      write_slot t s (a + d)
  | _ -> writer layout o

(* [o <- o + k] on operand [o] of [i], a loop counter's decrement: read and
   written at one address.  Reading and writing an updating operand walk it
   twice, as the two updates a [reader] and a [writer] queue do. *)
let operand_adder layout (i : Instr.t) (o : Instr.operand) k : t -> unit =
  match o with
  | Instr.Reg r ->
    let s = reg_slot r in
    fun t -> write_slot t s (read_slot t s + k)
  | Instr.Ind (Instr.Reg r, ((Instr.Post_inc | Instr.Post_dec) as u), _)
    when updates_at_once i o ->
    let s = reg_slot r and d = 2 * delta u in
    fun t ->
      let a = read_slot t s in
      store t a (load t a + k);
      write_slot t s (a + d)
  | _ ->
    let rd = reader layout o and wr = writer layout o in
    fun t -> wr t (rd t + k)
