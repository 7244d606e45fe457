(** Fig. 7 — NAND2 FO3 delay distributions at Vdd = 0.9 / 0.7 / 0.55 V with
    quantile–quantile analysis: the delay distribution becomes markedly
    non-Gaussian as the supply drops, and the statistical VS model must
    track that despite its variation parameters being independent
    Gaussians. *)

type per_vdd = {
  vdd : float;
  pair : Mc_compare.pair;
  skew_golden : float;
  skew_vs : float;
  qq_r2_golden : float;      (** Q–Q linearity; 1 = Gaussian *)
  qq_r2_vs : float;
  tail_dev_golden : float;   (** 3-sigma span vs Gaussian prediction *)
  tail_dev_vs : float;
  qq_vs : (float * float) array;  (** the VS Q–Q series for export *)
}

type t = { n : int; results : per_vdd list }

val run :
  ?vdds:float list -> ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t
[@@vstat.allow "unused-optional"]
(** [vdds] defaults to 0.9, 0.7, 0.55 and 0.45 V.  [?vdds] is granted as a
    speed seam: test_experiments runs two supplies, which takes its fig7
    case from about 2.7 s to 1.6 s. *)

val pp : Format.formatter -> t -> unit
