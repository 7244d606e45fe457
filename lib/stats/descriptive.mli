(** Descriptive statistics over float-array samples.

    These are the quantities the paper reports for every Monte Carlo run:
    mean, standard deviation, sigma/mu ratios, quantiles, and the
    skewness/kurtosis used to detect the non-Gaussian low-Vdd regime. *)

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

val excess_kurtosis : float array -> float
(** Sample excess kurtosis (0 for a Gaussian). *)

val quantile : float array -> float -> float
(** [quantile xs p] for p in [0, 1]; linear interpolation between order
    statistics (type-7, the numpy default).  Input need not be sorted. *)

val quantiles : float array -> float list -> float list
(** [quantiles xs ps] evaluates several quantiles over a single copy-and-sort
    of [xs] — use this instead of repeated {!quantile} calls when more than
    one quantile of the same sample is needed (each [quantile] call re-sorts). *)

val median : float array -> float

val mean_ci : float array -> float * float
(** [(lo, hi)] two-sided normal-approximation 95 % confidence interval on
    the mean.  The half-width scales as [1/sqrt n]: partial
    (deadline-degraded) runs naturally report wider, honest intervals.
    @raise Invalid_argument if fewer than 2 samples. *)

val weighted_mean : float array -> w:float array -> float
(** [weighted_mean xs ~w] is sum(w x) / sum(w) for non-negative weights.
    Zero-weight samples are ignored entirely (an importance-sampling run
    may legitimately carry weight-0 entries).  @raise Invalid_argument on
    empty input, a length mismatch, a negative/non-finite weight, or an
    all-zero weight vector. *)

val weighted_variance : float array -> w:float array -> float
(** Reliability-weighted unbiased sample variance:
    sum(w (x - mu)^2) / (S1 - S2/S1) with S1 = sum(w), S2 = sum(w^2) —
    the estimator that reduces to the (n-1)-denominator variance for unit
    weights.  @raise Invalid_argument under the {!weighted_mean}
    conditions, or when the effective sample size S1^2/S2 is <= 1 (a
    single sample carrying all the weight has no spread information). *)

val weighted_quantile : float array -> w:float array -> float -> float
(** [weighted_quantile xs ~w p] for p in [0, 1]: linear interpolation on
    the weighted plotting positions ((c_i - w_i/2) / S1, with c_i the
    cumulative weight through sample i of the value-sorted data) — the
    weighted generalization of the type-7 rule that {!quantile} reduces
    to under unit weights up to position convention.  Clamps to the
    extreme values outside the covered position range.
    @raise Invalid_argument under the {!weighted_mean} conditions or for
    p outside [0, 1]. *)

val effective_sample_size : float array -> float
(** Kish effective sample size of a weight vector: (sum w)^2 / sum(w^2).
    Equals n for uniform weights and degrades toward 1 as the weight mass
    concentrates — the standard health metric for an importance-sampling
    run.  Zero-weight entries count for nothing.  @raise Invalid_argument
    on empty input, negative/non-finite weights, or all-zero weights. *)

val covariance : float array -> float array -> float
(** Unbiased sample covariance of paired samples. *)

val correlation : float array -> float array -> float
(** Pearson correlation coefficient. *)
