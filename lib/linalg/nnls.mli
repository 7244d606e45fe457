(** Non-negative least squares (Lawson–Hanson active set).

    BPV solves a linear system whose unknowns are *variances*
    (the alpha_j^2 coefficients of the paper's eq. (10)); enforcing
    non-negativity at the solver level keeps the extracted model physical
    even when the measured data is noisy. *)

val solve : Matrix.t -> float array -> float array
(** [solve a b] minimizes ||a x - b||_2 subject to x >= 0 componentwise.
    [a] is m x n with m >= n typically over-determined.
    @raise Failure if the active-set iteration fails to converge within
    [10 n] iterations. *)

val residual_norm : Matrix.t -> float array -> float array -> float
(** [residual_norm a x b] is ||a x - b||_2, for diagnostics. *)
