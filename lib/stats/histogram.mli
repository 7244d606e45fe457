(** Kernel density estimates, sparklines and the Wilson interval.

    The paper's delay/SNM "probability density" figures are reproduced as
    density series: evaluation points paired with estimated density
    values. *)

val kde : ?points:int -> float array -> (float * float) array
(** Gaussian kernel density estimate evaluated on an even grid spanning the
    sample range extended by 3 bandwidths.  The bandwidth is Silverman's
    rule of thumb; default 101 evaluation points. *)

val sparkline : float array -> string
(** Unicode mini-plot of a density/series, for terminal output: at most
    60 glyphs, one per evenly spaced sample. *)

val wilson_interval : k:int -> int -> float * float
(** 95 % Wilson score interval for a binomial proportion [k]/[n] — the
    interval of choice for tail probabilities, where the normal (Wald)
    interval collapses to a point at k = 0 and routinely escapes [0, 1].
    @raise Invalid_argument when [n <= 0] or [k] outside [0, n]. *)
