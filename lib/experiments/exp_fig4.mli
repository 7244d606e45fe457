(** Fig. 4 — Ion vs log10(Ioff) bivariate scatter for the medium device
    (W/L = 600/40) with 1σ, 2σ, 3σ confidence ellipses from both models. *)

type model_result = {
  label : string;
  idsat : float array;
  log10_ioff : float array;
  ellipses : Vstat_stats.Ellipse.t list;  (** 1, 2, 3 sigma *)
  coverages : float list;  (** empirical coverage of each ellipse *)
}

type t = {
  w_nm : float;
  l_nm : float;
  n : int;
  golden : model_result;
  vs : model_result;
  correlation_golden : float;  (** corr(Idsat, log10 Ioff) *)
  correlation_vs : float;
}

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
