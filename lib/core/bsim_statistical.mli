(** Statistical golden model: Bsim4lite with Pelgrom mismatch.

    Plays the role of the paper's industrial statistical BSIM kit: its
    mismatch coefficients are the *ground truth* (we seed them with the
    paper's Table II values), its Monte Carlo outputs are the "measured"
    variances fed to BPV, and its distributions are the "golden" reference
    every validation figure compares against. *)

type t = {
  label : string;
  polarity : Vstat_device.Device_model.polarity;
  alphas : Variation.alphas;
  nominal : w_nm:float -> l_nm:float -> Vstat_device.Bsim4lite.params;
}

val golden_nmos : t
(** Synthetic-node NMOS with the paper's NMOS Table II coefficients. *)

val golden_pmos : t

val sample_device :
  t -> Vstat_util.Rng.t -> w_nm:float -> l_nm:float ->
  Vstat_device.Device_model.t

val nominal_device : t -> w_nm:float -> l_nm:float -> Vstat_device.Device_model.t
