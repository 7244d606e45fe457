(** The statistical Virtual Source model — the paper's contribution.

    A nominal VS card (typically produced by {!Extract_nominal}) is combined
    with the five extracted alpha coefficients.  Sampling draws independent
    Gaussian shifts for (VT0, Leff, Weff, mu, Cinv) with Pelgrom scaling and
    then applies the model's internal couplings:

    - DIBL is re-evaluated at the sampled Leff (paper eq. (4));
    - vxo is *not* an independent statistical parameter: it is slaved to the
      sampled mobility and DIBL shifts through eq. (5), preserving the
      independence of the p_j set required by the BPV assumption. *)

type t = {
  label : string;
  polarity : Vstat_device.Device_model.polarity;
  alphas : Variation.alphas;
  nominal : w_nm:float -> l_nm:float -> Vstat_device.Vs_model.params;
}

type shifts = {
  dvt0 : float;    (** V *)
  dl_nm : float;   (** nm *)
  dw_nm : float;   (** nm *)
  dmu : float;     (** cm^2/(V.s) *)
  dcinv : float;   (** uF/cm^2 *)
}

val zero_shifts : shifts

val apply_shifts :
  Vstat_device.Vs_model.params -> shifts -> Vstat_device.Vs_model.params
(** Deterministically perturb a card: shifts in the customary units of
    {!Variation}, DIBL recomputed at the new Leff, vxo slaved via eq. (5).
    Used by both Monte Carlo sampling and finite-difference sensitivities so
    the two always agree on the meaning of a parameter shift. *)

val draw_shifts : t -> Vstat_util.Rng.t -> w_nm:float -> l_nm:float -> shifts
(** Independent Gaussian shifts at this geometry's Pelgrom sigmas. *)

val sample_device :
  t -> Vstat_util.Rng.t -> w_nm:float -> l_nm:float ->
  Vstat_device.Device_model.t

val nominal_device :
  t -> w_nm:float -> l_nm:float -> Vstat_device.Device_model.t

val seed_nmos : t
[@@vstat.allow "unused-export"]
(** Statistical model over the hand-written seed card with the paper's
    Table II alphas — useful before extraction has run.  Granted as a
    shared fixture: test_core, test_runtime and smoke_parallel sample
    it. *)
