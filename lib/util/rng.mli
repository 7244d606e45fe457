(** Deterministic, seedable pseudo-random number generation.

    All randomness in the library flows through this module so that every
    experiment is reproducible from an explicit integer seed.  The generator
    is xoshiro256++ seeded through SplitMix64, which has good statistical
    quality and a tiny state (4 words). *)

type t
(** Mutable generator state. *)

val create : seed:int -> t
(** [create ~seed] builds a fresh generator.  Two generators built with the
    same seed produce identical streams. *)

val split : t -> t
(** [split t] derives an independent generator from [t], advancing [t].
    Used to give each Monte Carlo sample its own stream so that per-sample
    results do not depend on evaluation order. *)

val substream : seed:int -> index:int -> t
(** [substream ~seed ~index] is the [index]-th member of a family of
    generators derived from [seed] by a SplitMix64 counter jump.  Unlike
    {!split}, it is a pure function of its arguments: sample [index] always
    sees the same stream regardless of how many workers evaluate the family
    or in what order, which is what makes parallel Monte Carlo results
    independent of the worker count ({!Vstat_runtime.Runtime}).
    [index] must be non-negative; streams at distinct indices are
    statistically independent. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform on [0, 1) with 53 bits of precision. *)

val uniform : t -> lo:float -> hi:float -> float
[@@vstat.allow "unused-export"]
(** Uniform on [lo, hi).  Granted as a shared fixture: test_circuit draws
    its random RC ladders with it, and test_util tests it. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform on [0, bound).  [bound] must be positive. *)

val gaussian : t -> float
[@@vstat.allow "unused-export"]
(** Standard normal deviate (Box–Muller, polar form, with caching).
    Granted as a shared fixture: chaos_smoke, resume_chaos,
    test_checkpoint, test_rare, test_runtime, test_stats and test_util
    draw their synthetic samples with it. *)

val gaussian_scaled : t -> mean:float -> sigma:float -> float
(** Normal deviate with the given mean and standard deviation. *)

val lognormal : t -> mu:float -> sigma:float -> float
[@@vstat.allow "unused-export"]
(** Deviate of exp(N(mu, sigma^2)).  Granted as a shared fixture:
    test_stats draws its skewed samples with it, and test_util tests
    it. *)
