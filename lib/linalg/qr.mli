(** Householder QR factorization and linear least squares.

    Used by the BPV extraction (stacked over-determined system, eq. (10) of
    the paper). *)

type t
(** QR factorization of an m x n matrix with m >= n. *)

val factor : Matrix.t -> t
(** Factor.  @raise Invalid_argument if rows < cols. *)

val least_squares : Matrix.t -> float array -> float array
(** [least_squares a b] minimizes ||a x - b||_2 for full-column-rank [a].
    @raise Failure on rank deficiency (zero diagonal in R). *)

val r : t -> Matrix.t
(** The n x n upper-triangular factor. *)
