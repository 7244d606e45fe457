(** Bivariate Gaussian confidence ellipses (paper Fig. 4).

    An ellipse is derived from the sample mean and covariance of paired
    observations; its axes are the covariance eigenvectors scaled by
    sqrt(eigenvalue) times the Mahalanobis radius. *)

type t = {
  center : float * float;
  axis_lengths : float * float;  (** semi-axes, major first *)
  angle : float;                 (** major-axis angle w.r.t. +x, radians *)
  confidence : float;            (** coverage probability, e.g. 0.393 for 1σ *)
}

val of_sigma_level : n_sigma:int -> float array -> float array -> t
(** The paper's "1σ, 2σ, 3σ" ellipses: Mahalanobis radius equal to
    [n_sigma], i.e. coverage 1 - exp(-k²/2) in 2D. *)

val points : t -> n:int -> (float * float) array
(** [n] points around the ellipse boundary, for plotting/export. *)

val coverage : t -> float array -> float array -> float
(** Fraction of the paired samples falling inside the ellipse — the empirical
    check that the ellipse matches its nominal coverage. *)
