(** Nelder–Mead downhill simplex minimization.

    Used for the nominal VS parameter extraction: fitting the VS model's
    I–V surface to the golden model's data (paper Fig. 1) is a smooth
    low-dimensional problem where derivative-free simplex search is robust
    to the model's piecewise-smooth regions. *)

type result = {
  x : float array;        (** best point found *)
  f : float;              (** objective at [x] *)
  iterations : int;
  converged : bool;       (** simplex collapsed below tolerance *)
}

val minimize_restarts :
  ?restarts:int ->
  ?max_iter:int ->
  f:(float array -> float) ->
  x0:float array ->
  unit ->
  result
(** [minimize_restarts ~f ~x0 ()] runs the standard simplex recipe
    (reflection 1, expansion 2, contraction 0.5, shrink 0.5) for at most
    [max_iter] iterations (default 2000), from a starting simplex that
    steps each coordinate by 5 % of |x0_i| (0.01 where x0_i = 0).
    Convergence: simplex function spread < 1e-12 relative or vertex
    spread < 1e-10 relative.  It then re-runs from each successive optimum
    with a fresh simplex, up to [restarts] runs in all (default 3), and
    stops early when a run makes no progress: cheap insurance against
    premature simplex collapse.
    @raise Invalid_argument on an empty [x0]. *)
