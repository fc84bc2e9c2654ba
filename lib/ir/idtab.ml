(* Chunked growable array: a spine of chunk cells, each chunk a flat array
   of [chunk_size] slots.  The spine and the chunk cells are [Atomic.t] so
   installation is race-free (first CAS wins, losers adopt the winner's
   chunk); the slot writes inside a chunk are plain stores — values are
   deterministic per slot, so a lost write only costs a recomputation,
   never a wrong answer. *)

(* 1,024 slots (8 KB): small enough that a table touching a few hundred
   ids — a matcher that labels a handful of kernels — costs kilobytes, not
   the 512 KB of a 65,536-slot chunk; still larger than the minor heap's
   largest block, so a chunk is allocated directly in the major heap.  The
   spine is the price: one cell per 1,024 ids up to the highest id set. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits
let chunk_mask = chunk_size - 1

(* [||] marks an absent chunk; a real chunk always has [chunk_size] slots. *)
type 'a t = { spine : 'a array Atomic.t array Atomic.t; absent : 'a }

let make_spine n = Array.init n (fun _ -> Atomic.make [||])

let create absent = { spine = Atomic.make (make_spine 64); absent }

let get t id =
  let spine = Atomic.get t.spine in
  let ci = id lsr chunk_bits in
  if ci >= Array.length spine then t.absent
  else
    let chunk = Atomic.get (Array.unsafe_get spine ci) in
    if Array.length chunk = 0 then t.absent
    else Array.unsafe_get chunk (id land chunk_mask)

let rec grow t need =
  let spine = Atomic.get t.spine in
  let len = Array.length spine in
  if need < len then spine
  else begin
    let len' = max (len * 2) (need + 1) in
    let spine' = Array.init len' (fun i ->
        if i < len then spine.(i) else Atomic.make [||])
    in
    (* Cells are shared between the old and new spine, so chunks installed
       concurrently through the old spine stay visible; if the CAS loses,
       somebody else grew it — retry against their spine. *)
    ignore (Atomic.compare_and_set t.spine spine spine');
    grow t need
  end

let chunk_at t ci =
  let spine =
    let spine = Atomic.get t.spine in
    if ci < Array.length spine then spine else grow t ci
  in
  let cell = Array.unsafe_get spine ci in
  let chunk = Atomic.get cell in
  if Array.length chunk > 0 then chunk
  else begin
    let fresh = Array.make chunk_size t.absent in
    if Atomic.compare_and_set cell [||] fresh then fresh else Atomic.get cell
  end

let set t id v =
  let chunk = chunk_at t (id lsr chunk_bits) in
  Array.unsafe_set chunk (id land chunk_mask) v
