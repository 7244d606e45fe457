(** Histograms and kernel density estimates.

    The paper's delay/SNM "probability density" figures are reproduced as
    density series: bin centers (or evaluation points) paired with estimated
    density values. *)

type t = {
  edges : float array;    (** n+1 bin edges, ascending *)
  counts : int array;     (** n bin occupation counts *)
  total : int;            (** number of samples binned *)
}

val build : ?bins:int -> float array -> t
(** [build xs] bins the samples into [bins] equal-width bins spanning
    [min xs, max xs].  Default bin count follows the Freedman–Diaconis rule
    clamped to [8, 128].  @raise Invalid_argument on empty input. *)

val kde : ?points:int -> float array -> (float * float) array
(** Gaussian kernel density estimate evaluated on an even grid spanning the
    sample range extended by 3 bandwidths.  The bandwidth is Silverman's
    rule of thumb; default 101 evaluation points. *)

val sparkline : ?width:int -> float array -> string
(** Unicode mini-plot of a density/series, for terminal output. *)

val wilson_interval : k:int -> int -> float * float
(** 95 % Wilson score interval for a binomial proportion [k]/[n] — the
    interval of choice for tail probabilities, where the normal (Wald)
    interval collapses to a point at k = 0 and routinely escapes [0, 1].
    @raise Invalid_argument when [n <= 0] or [k] outside [0, n]. *)

type tail_estimate = {
  t_prob : float;          (** empirical exceedance k/n *)
  t_count : int;           (** samples beyond the threshold *)
  t_n : int;               (** total samples *)
  t_lo : float;            (** Wilson interval lower bound *)
  t_hi : float;            (** Wilson interval upper bound *)
}

val exceedance :
  ?tail:[ `Upper | `Lower ] -> float array -> float -> tail_estimate
(** [exceedance xs t] estimates P(X > t) ([`Upper], the default) or
    P(X < t) ([`Lower]) with its 95 % Wilson interval — the plain-MC baseline
    every rare-event estimator is validated against.  Strict inequalities
    on both sides, so a sample exactly at the threshold is never counted
    as failing.  @raise Invalid_argument on empty input. *)
