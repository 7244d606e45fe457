(** One-dimensional root finding helpers.

    Used by cell analyses: the DFF setup search is a 1-D root find on
    "does the register still capture the data?", and SNM extraction
    bisects for the side of the square that fits between the two
    curves. *)

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
