(** Special functions needed by the statistics substrate.

    Implemented from standard rational approximations (Abramowitz & Stegun;
    Acklam's inverse normal CDF) — accurate to well below the Monte Carlo
    noise floor of any experiment in this repository. *)

val normal_cdf : float -> float
[@@vstat.allow "unused-export"]
(** Standard normal cumulative distribution function, from the
    Abramowitz–Stegun erf (|error| < 1.5e-7).  Granted as a reference:
    test_rare's exact failure probability, and test_util's checks of erf,
    erfc and {!normal_quantile} through it. *)

val normal_pdf : float -> float
(** Standard normal probability density function. *)

val normal_quantile : float -> float
(** [normal_quantile p] is the inverse standard normal CDF for
    [p] in (0, 1); relative error < 1.15e-9 (Acklam's algorithm with one
    Halley refinement step).
    @raise Invalid_argument if [p] is outside (0, 1). *)

val z95 : float
(** The z of every two-sided 95 % interval in the repository:
    [normal_quantile (0.5 +. 0.95 /. 2.)], about 1.96. *)
