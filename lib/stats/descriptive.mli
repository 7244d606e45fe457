(** Descriptive statistics over float-array samples.

    These are the quantities the paper reports for every Monte Carlo run:
    mean, standard deviation, sigma/mu ratios, quantiles, and the
    skewness used to detect the non-Gaussian low-Vdd regime. *)

val mean : float array -> float
(** Arithmetic mean.  @raise Invalid_argument on empty input. *)

val variance : float array -> float
(** Unbiased sample variance (n - 1 denominator).
    @raise Invalid_argument if fewer than 2 samples. *)

val std : float array -> float
(** Unbiased sample standard deviation. *)

val sigma_over_mu : float array -> float
(** std / |mean| — the paper's mismatch ratio. *)

val min_max : float array -> float * float

val skewness : float array -> float
(** Adjusted Fisher–Pearson sample skewness (g1 with bias correction). *)

val quantile : float array -> float -> float
(** [quantile xs p] for p in [0, 1]; linear interpolation between order
    statistics (type-7, the numpy default).  Input need not be sorted. *)

val quantiles : float array -> float list -> float list
(** [quantiles xs ps] evaluates several quantiles over a single copy-and-sort
    of [xs] — use this instead of repeated {!quantile} calls when more than
    one quantile of the same sample is needed (each [quantile] call re-sorts). *)

val mean_ci : float array -> float * float
(** [(lo, hi)] two-sided normal-approximation 95 % confidence interval on
    the mean.  The half-width scales as [1/sqrt n]: partial
    (deadline-degraded) runs naturally report wider, honest intervals.
    @raise Invalid_argument if fewer than 2 samples. *)

val weighted_mean : float array -> w:float array -> float
[@@vstat.allow "unused-export"]
(** [weighted_mean xs ~w] is sum(w x) / sum(w) for non-negative weights.
    Zero-weight samples are ignored entirely (an importance-sampling run
    may legitimately carry weight-0 entries).  @raise Invalid_argument on
    empty input, a length mismatch, a negative/non-finite weight, or an
    all-zero weight vector.  Granted as a reference: test_rare checks
    [Vstat_rare.Wacc.mean] against it. *)

val effective_sample_size : float array -> float
[@@vstat.allow "unused-export"]
(** Kish effective sample size of a weight vector: (sum w)^2 / sum(w^2).
    Equals n for uniform weights and degrades toward 1 as the weight mass
    concentrates — the standard health metric for an importance-sampling
    run.  Zero-weight entries count for nothing.  Granted as a reference:
    test_rare checks [Vstat_rare.Wacc.ess] against it.
    @raise Invalid_argument on empty input, negative/non-finite weights,
    or all-zero weights. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of paired samples. *)

val correlation : float array -> float array -> float
(** Pearson correlation coefficient. *)
