(** LU factorization with partial pivoting, the workhorse solver for the
    circuit simulator's Newton iterations. *)

type t
(** A factorization of a square matrix. *)

exception Singular of { column : int; scale : float }
(** Raised when the best available pivot in [column] is negligible
    *relative to* that column's magnitude [scale] (the largest absolute
    entry seen in the column, eliminated part included).  The test is
    scale-invariant: uniformly tiny but well-conditioned systems factor
    fine, while rank-deficient columns are caught even when their residual
    entries are far above any absolute threshold.  [scale] is surfaced so
    diagnostics can report how degenerate the column actually was. *)

val factor : Matrix.t -> t
[@@vstat.allow "unused-export"]
(** Factor a square matrix.  O(n^3).  Granted as a reference: test_linalg
    checks singular-column detection and {!factor_in_place} against it.
    @raise Singular when the matrix is numerically singular.
    @raise Invalid_argument on non-square input. *)

val factor_in_place : Matrix.t -> pivots:int array -> int
(** Allocation-free factorization for hot loops: overwrite the matrix with
    its combined L (unit diagonal) / U factors, record the row exchanges in
    [pivots] (LAPACK convention: at step k, row k was swapped with row
    [pivots.(k)]), and return the permutation sign as [+1] or [-1].  The
    sign is an [int] deliberately: a boxed float return would allocate on
    every Newton iteration and break the zero-allocation gate.  [pivots]
    must have length equal to the matrix dimension.
    @raise Singular when the matrix is numerically singular.
    @raise Invalid_argument on non-square input or a mis-sized pivot array. *)

val solve_in_place : lu:Matrix.t -> pivots:int array -> float array -> unit
(** Solve A x = b in place, overwriting [b] with the solution, given the
    outputs of {!factor_in_place}.  Performs no allocation. *)

val solve : Matrix.t -> float array -> float array
[@@vstat.allow "unused-export"]
(** One-shot factorization and solve.  Granted as a reference:
    test_linalg solves every sparse-LU and least-squares case against
    it. *)
