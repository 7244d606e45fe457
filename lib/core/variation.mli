(** Variation-source taxonomy and Pelgrom geometry scaling
    (paper Table I and eq. (8)).

    The five independent statistical parameters and their physical origins:

    - [VT0]  <- random dopant fluctuation (RDF)
    - [Leff] <- line-edge roughness (LER)
    - [Weff] <- line-edge roughness (LER)
    - [mu]   <- local mechanical-stress fluctuation
    - [Cinv] <- oxide-thickness fluctuation (OTF)

    Standard deviations follow the area law sigma_p / p ∝ 1 / sqrt(W L),
    expressed through the alpha coefficients with the paper's
    geometry-specific forms:

    {v
      sigma_VT0  = alpha1 / sqrt(W L)        (V;  alpha1 in V.nm)
      sigma_Leff = alpha2 . sqrt(L / W)      (nm; alpha2 in nm)
      sigma_Weff = alpha3 . sqrt(W / L)      (nm; alpha3 in nm)
      sigma_mu   = alpha4 / sqrt(W L)        (cm^2/Vs; alpha4 in nm.cm^2/Vs)
      sigma_Cinv = alpha5 / sqrt(W L)        (uF/cm^2; alpha5 in nm.uF/cm^2)
    v}

    with W and L in nanometers.  Note alpha2 = alpha3 implies
    sigma_L / sigma_W = L / W, the paper's LER tie. *)

type alphas = {
  a_vt0 : float;   (** alpha1, V.nm *)
  a_l : float;     (** alpha2, nm *)
  a_w : float;     (** alpha3, nm *)
  a_mu : float;    (** alpha4, nm.cm^2/(V.s) *)
  a_cinv : float;  (** alpha5, nm.uF/cm^2 *)
}

type sigmas = {
  s_vt0 : float;   (** V *)
  s_l : float;     (** nm *)
  s_w : float;     (** nm *)
  s_mu : float;    (** cm^2/(V.s) *)
  s_cinv : float;  (** uF/cm^2 *)
}

val sigmas_of_alphas : alphas -> w_nm:float -> l_nm:float -> sigmas
(** Evaluate the Pelgrom forms at a geometry. *)

val vxo_relative_shift :
  ballistic_b:float -> dmu_rel:float -> ddelta:float -> float
(** Paper eq. (5): the relative virtual-source-velocity shift induced by a
    relative mobility shift [dmu_rel] and an absolute DIBL shift [ddelta]:
    [(alpha + (1-B)(1-alpha+gamma)) . dmu_rel + 2 . ddelta]. *)

val paper_alphas_nmos : alphas
(** Table II NMOS column — used as the golden model's ground truth. *)

val paper_alphas_pmos : alphas
(** Table II PMOS column. *)
