(** Dense complex matrices and LU solve, for AC (small-signal) analysis
    where the MNA system is G + j.omega.C. *)

type t
(** A mutable rows x cols matrix of {!Complex.t}. *)

val combine : g:Matrix.t -> c:Matrix.t -> omega:float -> t
(** [combine ~g ~c ~omega] is G + j.omega.C — the AC system matrix. *)

exception Singular of { column : int; scale : float }

val solve : t -> Complex.t array -> Complex.t array
(** LU with partial pivoting (by modulus).  O(n^3).
    @raise Singular on numerically singular systems.
    @raise Invalid_argument on shape mismatch. *)
