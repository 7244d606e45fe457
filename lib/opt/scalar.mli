(** One-dimensional root finding and minimization helpers.

    Used by cell analyses: the DFF setup/hold search is a 1-D root find on
    "does the register still capture the data?", and SNM extraction uses a
    1-D maximization of the embedded-square size. *)

val bisect :
  ?tol:float -> f:(float -> float) -> lo:float -> hi:float -> unit -> float
(** Root of a continuous scalar function on a bracketing interval
    (f(lo) and f(hi) must have opposite signs), in at most 200 halvings.
    @raise Invalid_argument if the interval does not bracket a sign change. *)

val bisect_predicate :
  ?tol:float -> f:(float -> bool) -> lo:float -> hi:float -> unit -> float
(** Boundary between a false region (at [lo]) and a true region (at [hi])
    of a monotone predicate — the register pass/fail search — in at most
    100 halvings.
    @raise Invalid_argument unless f lo = false and f hi = true. *)

val golden_max :
  f:(float -> float) -> lo:float -> hi:float -> unit -> float * float
(** Golden-section maximization of a unimodal function to a relative
    bracket of 1e-10 (at most 200 steps); returns (x, f x). *)
