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

val minimize :
  ?max_iter:int ->
  ?initial_step:float array ->
  f:(float array -> float) ->
  x0:float array ->
  unit ->
  result
(** [minimize ~f ~x0 ()] runs the standard simplex recipe
    (reflection 1, expansion 2, contraction 0.5, shrink 0.5).
    [initial_step] sets the per-coordinate size of the starting simplex
    (default: 5 % of |x0_i|, or 0.01 where x0_i = 0).
    Convergence: simplex function spread < 1e-12 relative or vertex
    spread < 1e-10 relative. *)

val minimize_restarts :
  ?restarts:int ->
  ?max_iter:int ->
  f:(float array -> float) ->
  x0:float array ->
  unit ->
  result
(** Re-run [minimize] from each successive optimum with a fresh simplex;
    cheap insurance against premature simplex collapse. *)
