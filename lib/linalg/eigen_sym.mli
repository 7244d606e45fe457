(** Eigendecomposition of real symmetric matrices (cyclic Jacobi).

    Used for covariance analysis: confidence ellipses (2x2) and sanity
    checks on larger covariance matrices from Monte Carlo runs. *)

type result = {
  values : float array;   (** eigenvalues, descending *)
  vectors : Matrix.t;     (** column j is the unit eigenvector of values.(j) *)
}

val decompose : Matrix.t -> result
(** [decompose a] for symmetric [a].  The input is symmetrized as
    (a + a^T)/2 before iterating, so mild asymmetry from finite differences
    is tolerated.
    @raise Invalid_argument on non-square input.
    @raise Failure if 100 Jacobi sweeps fail to converge. *)
