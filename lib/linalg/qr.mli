(** Householder QR factorization and linear least squares.

    Used by the BPV extraction (stacked over-determined system, eq. (10) of
    the paper). *)

val least_squares : Matrix.t -> float array -> float array
(** [least_squares a b] minimizes ||a x - b||_2 for full-column-rank [a].
    @raise Failure on rank deficiency (zero diagonal in R). *)
