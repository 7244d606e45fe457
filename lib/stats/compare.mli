(** Quantitative distribution comparisons.

    The paper's claim is that the statistical VS model produces "almost
    identical distributions" to the golden BSIM model.  These utilities turn
    that into numbers: two-sample Kolmogorov–Smirnov distance, relative
    moment differences, and overlap of kernel density estimates. *)

val ks_statistic : float array -> float array -> float
(** Two-sample Kolmogorov–Smirnov statistic D in [0, 1]
    (0 = identical empirical CDFs). *)

val ks_p_value : float array -> float array -> float
(** Asymptotic p-value for the two-sample KS test (Kolmogorov distribution
    series).  Large p = no evidence the distributions differ. *)

val relative_std_diff : float array -> float array -> float
(** |std a - std b| / std b — the paper's Table III comparison metric. *)

val relative_mean_diff : float array -> float array -> float

val density_overlap : float array -> float array -> float
(** Integral of min(f, g) for the two KDE densities on a 201-point grid,
    in [0, 1] (1 = identical densities). *)
