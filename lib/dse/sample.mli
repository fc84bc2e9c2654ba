(** Seeded, deterministic sampling of the ASIP design space.

    The paper's §2.2 classifies core processors along a parameter cube
    (register structure, addressing capacity, datapath features); the
    parametric {!Target.Asip} exposes exactly such a cube as
    {!Target.Asip.params}. This module draws points from it with a
    counter-based PRNG (splitmix64): every point is a pure function of
    [(seed, index)], so a sweep is reproduced exactly by its seed, any
    sample can be regenerated in isolation, and two runs of one seed are
    byte-identical — the property the DSE CI job asserts with [cmp].

    Every drawn point satisfies {!Target.Asip.validate} by construction:
    the sampler's ranges are the validator's ranges, so a rejected sample
    is a bug, not a statistic. *)

type point = {
  index : int;  (** position in the seed's sample sequence *)
  name : string;
      (** canonical, parameter-derived machine name (e.g.
          [asip-a2m1c0s1i12r5]): a pure injective encoding of the full
          parameter record. Duplicate draws therefore share one registered
          machine, one warm matcher, and one set of compilation-cache keys —
          which is what makes a warm sweep rerun hit the cache on every
          job. *)
  params : Target.Asip.params;
}

val point : seed:int -> int -> point
(** The [i]th point of the seed's sequence, in O(1). *)

val points : seed:int -> count:int -> point list
(** The first [count] points: [List.init count (point ~seed)]. *)
