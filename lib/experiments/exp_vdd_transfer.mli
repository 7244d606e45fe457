(** Ablation — Vdd transferability of the statistical extraction.

    The paper's claim (Sec. I and IV-B): BPV is run once at the nominal
    Vdd, yet "the resulting statistical model is valid over a whole range
    of Vdd's" — unlike PSP-style statistical models that need extra
    variance terms per bias point.  This experiment measures device-metric
    sigmas at reduced supplies using (a) the alphas extracted at nominal
    Vdd and (b) alphas re-extracted at the reduced Vdd, against golden
    Monte Carlo truth at that Vdd. *)

type row = {
  vdd : float;
  golden_sigma_idsat : float;
  transfer_sigma_idsat : float;     (** VS MC, alphas from nominal Vdd *)
  reextract_sigma_idsat : float;    (** VS MC, alphas re-extracted at vdd *)
  golden_sigma_logioff : float;
  transfer_sigma_logioff : float;
  reextract_sigma_logioff : float;
}

type t = { w_nm : float; l_nm : float; n : int; rows : row list }

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t
(** One row per supply: 0.9, 0.7 and 0.55 V. *)

val pp : Format.formatter -> t -> unit
