(** Extension — inter-die plus within-die variation (paper eq. (1)).

    Samples INV FO3 delays under (a) within-die mismatch only and
    (b) within-die mismatch composed with a shared per-die global shift,
    then recovers the implied inter-die sigma by variance subtraction.
    The die shifts are drawn first; each population is then one
    {!Mc_compare.collect_indexed} sweep ([inter-die-total],
    [inter-die-within]) whose sample [i] sits on die [i / per_die]. *)

type t = {
  n_dies : int;
  per_die : int;
  within_delays : float array;
  total_delays : float array;
  sigma_within : float;
  sigma_total : float;
  sigma_inter_implied : float;  (** via variance subtraction, eq. (1) *)
}

val run :
  ?n_dies:int -> ?per_die:int -> ?seed:int -> Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
