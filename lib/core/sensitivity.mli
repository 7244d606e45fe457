(** Finite-difference sensitivities of the BPV observables with respect to
    the VS statistical parameters — the entries of the paper's eq. (10)
    sensitivity matrix ("calculated from SPICE simulation using VS model").

    Derivatives are taken in the customary units of {!Variation}
    (V, nm, nm, cm^2/Vs, uF/cm^2) so that products with Pelgrom sigmas give
    metric standard deviations directly. *)

type metric = Idsat | Log10_ioff | Cgg

val all_metrics : metric list

type parameter = [ `Vt0 | `L | `W | `Mu | `Cinv ]

val all_parameters : parameter list

val vs_derivative :
  Vs_statistical.t ->
  w_nm:float -> l_nm:float -> vdd:float ->
  metric -> parameter ->
  float
(** Central finite difference of the metric through
    {!Vs_statistical.apply_shifts}, so shifting [`L] carries the DIBL and
    vxo couplings exactly as Monte Carlo sampling does. *)
