(** Model cards for the synthetic 40 nm bulk CMOS node.

    The paper uses an industrial 40 nm design kit; these cards define the
    stand-in node (see DESIGN.md).  Golden Bsim4lite cards define the node's
    "truth"; the VS seed cards are starting points for nominal extraction
    (fitting VS to golden I–V data reproduces the paper's Fig. 1 workflow).

    Constructors take geometry in nanometers, matching how the paper quotes
    sizes (e.g. W/L = 600/40); everything is converted to SI internally. *)

val nm : float -> float
(** Nanometers to meters. *)

val uf_per_cm2 : float -> float
(** uF/cm^2 to F/m^2. *)

val cm2_per_vs : float -> float
(** cm^2/(V.s) to m^2/(V.s). *)

val vdd_nominal : float
(** Nominal supply of the node, 0.9 V (as in the paper's benchmarks). *)

val l_nominal_nm : float
(** Nominal gate length, 40 nm. *)

val bsim_nmos : w_nm:float -> l_nm:float -> Bsim4lite.params
(** Golden NMOS card at the given drawn geometry. *)

val bsim_pmos : w_nm:float -> l_nm:float -> Bsim4lite.params
(** Golden PMOS card (parameters are magnitudes; polarity is applied by
    {!Device_model.make}). *)

val vs_seed_nmos : w_nm:float -> l_nm:float -> Vs_model.params
(** Hand-written VS starting card for NMOS nominal extraction. *)

val vs_seed_pmos : w_nm:float -> l_nm:float -> Vs_model.params

val bsim_device :
  polarity:Device_model.polarity -> w_nm:float -> l_nm:float -> Device_model.t
(** Convenience: golden device of the requested polarity and geometry. *)

val vs_seed_device :
  polarity:Device_model.polarity -> w_nm:float -> l_nm:float -> Device_model.t
