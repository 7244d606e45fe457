(** Vector helpers over plain [float array]. *)

val dot : float array -> float array -> float

val norm_inf : float array -> float
val sub : float array -> float array -> float array
val axpy : alpha:float -> x:float array -> y:float array -> unit
(** In-place y := y + alpha * x. *)

val max_rel_diff : float array -> float array -> float
(** max_i |a_i - b_i| / max(1, |a_i|, |b_i|); convergence metric for Newton. *)
