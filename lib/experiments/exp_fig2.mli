(** Fig. 2 — relative difference in the extracted sigma(VT0), sigma(Leff)
    and sigma(Weff) between solving the BPV system for each geometry
    individually and solving the stacked system jointly. *)

type row = {
  w_nm : float;
  l_nm : float;
  diff_vt0_pct : float;
  diff_leff_pct : float;
  diff_weff_pct : float;
}

type t = { rows : row list; max_abs_diff_pct : float }

val run : Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
