(** Fig. 6 — total circuit leakage vs frequency (1/delay) scatter for the
    INV FO3 harness; the paper reports a ~37x leakage spread against a
    ~45-50 % frequency spread from within-die variation alone. *)

type model_scatter = {
  label : string;
  leakage : float array;     (** A *)
  frequency : float array;   (** Hz, 1/tpd *)
  leakage_spread : float;    (** max/min *)
  freq_spread_pct : float;   (** (max-min)/mean * 100 *)
}

type t = {
  n : int;
  golden : model_scatter;
  vs : model_scatter;
  leakage_pair : Mc_compare.pair;
  frequency_pair : Mc_compare.pair;
}

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
