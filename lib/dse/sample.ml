(* Counter-based PRNG: splitmix64's finalizer over (seed, index, knob).
   No hidden stream state — the value of knob k of sample i under seed s
   is a pure function of the three integers — so samples can be drawn in
   any order, in parallel, or re-drawn individually, and the sequence is
   identical across OCaml versions and word sizes (all arithmetic is
   explicit Int64). *)

let mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 33)) 0xff51afd7ed558ccdL in
  let z = mul (logxor z (shift_right_logical z 33)) 0xc4ceb9fe1a85ec53L in
  logxor z (shift_right_logical z 33)

(* The golden-gamma stream constants of splitmix64. *)
let gamma = 0x9e3779b97f4a7c15L
let gamma' = 0xbf58476d1ce4e5b9L

(* A non-negative int drawn for (seed, index, knob). *)
let draw ~seed ~index knob =
  let open Int64 in
  let state =
    add (mul (of_int seed) gamma) (add (of_int index) (mul (of_int knob) gamma'))
  in
  (* 62-bit mask: fits OCaml's 63-bit native int without sign games. *)
  to_int (logand (mix64 state) 0x3fffffffffffffffL)

(* [lo..hi] inclusive. *)
let range ~seed ~index knob lo hi =
  lo + (draw ~seed ~index knob mod (hi - lo + 1))

let flag ~seed ~index knob = draw ~seed ~index knob land 1 = 1

type point = { index : int; name : string; params : Target.Asip.params }

let name_of_params (p : Target.Asip.params) =
  Printf.sprintf "asip-a%dm%dc%ds%di%dr%d" p.Target.Asip.accumulators
    (if p.Target.Asip.has_multiplier then 1 else 0)
    (if p.Target.Asip.has_mac then 1 else 0)
    (if p.Target.Asip.has_saturation then 1 else 0)
    p.Target.Asip.imm_bits p.Target.Asip.address_regs

(* The sampled cube is exactly what Asip.validate admits: accumulators
   1..2, imm_bits 4..16, and address registers capped at the C25-class 8
   (the AGU shapes the DSPStone kernels were sized for). *)
let point ~seed index =
  let params =
    {
      Target.Asip.accumulators = range ~seed ~index 0 1 2;
      has_multiplier = flag ~seed ~index 1;
      has_mac = flag ~seed ~index 2;
      has_saturation = flag ~seed ~index 3;
      imm_bits = range ~seed ~index 4 4 16;
      address_regs = range ~seed ~index 5 2 8;
    }
  in
  Target.Asip.validate params;
  { index; name = name_of_params params; params }

let points ~seed ~count = List.init count (point ~seed)
