(** Inter-die (global) variation on top of within-die mismatch.

    The paper focuses on within-die variation but notes (eq. (1)) that the
    same BPV machinery applies across dies, with the inter-die component
    recovered by variance subtraction:

    {v sigma^2_inter-die = sigma^2_total - sigma^2_within-die v}

    This module models a die as one *shared* parameter shift applied to
    every device, composed with independent per-device mismatch, and
    provides the variance-decomposition helper. *)

type die_shift = {
  g_dvt0 : float;   (** V, applied to every device on the die *)
  g_dl_nm : float;
  g_dmu_rel : float;  (** relative mobility shift *)
}

type t = {
  sigma_vt0 : float;     (** inter-die sigma of VT0, V *)
  sigma_l_nm : float;    (** inter-die sigma of Leff, nm *)
  sigma_mu_rel : float;  (** inter-die relative mobility sigma *)
}

val default_40nm : t
(** A plausible global corner spread for the synthetic node
    (sigma_VT0 = 15 mV, sigma_L = 1 nm, sigma_mu = 2 %). *)

val draw : t -> Vstat_util.Rng.t -> die_shift
(** One die's global shift (independent Gaussians). *)

val die_tech :
  Pipeline.t -> die:die_shift -> rng:Vstat_util.Rng.t -> vdd:float ->
  Vstat_cells.Celltech.t
(** Technology handle for one die: every requested device combines the
    die's shared shift with a fresh within-die mismatch draw. *)

val decompose_variance :
  total:float array -> within:float array -> float
(** Paper eq. (1): sqrt(max(0, var(total) - var(within))) — the implied
    inter-die sigma of a metric. *)
