(** Vector helpers over plain [float array]. *)

val max_rel_diff : float array -> float array -> float
(** max_i |a_i - b_i| / max(1, |a_i|, |b_i|); convergence metric for Newton. *)
