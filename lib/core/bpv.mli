(** Backward Propagation of Variance — the paper's Section III.

    Measured variances of the electrical metrics
    [e_i = {Idsat, log10 Ioff, Cgg@Vdd}] at several transistor geometries
    are mapped onto the variances of the independent VS parameters
    [p_j = {VT0, Leff, Weff, mu}] by solving the stacked linear system of
    eq. (10) in the squared alpha coefficients.  [Cinv] is excluded from the
    solve (its tiny, tightly-controlled variance is "measured directly" and
    subtracted from the left-hand side, exactly as the paper prescribes);
    the LER tie alpha2 = alpha3 reduces the unknowns to three. *)

type observation = {
  w_nm : float;
  l_nm : float;
  sigma_idsat : float;       (** measured, A *)
  sigma_log10_ioff : float;  (** measured, decades *)
  sigma_cgg : float;         (** measured, F *)
}

val observe_golden :
  ?jobs:int ->
  ?fingerprint:string ->
  label:string ->
  Bsim_statistical.t ->
  rng:Vstat_util.Rng.t -> n:int -> vdd:float ->
  w_nm:float -> l_nm:float ->
  observation
(** "Measure" one geometry by Monte Carlo on the golden statistical model —
    the stand-in for the paper's silicon / design-kit measurements.  The MC
    runs on {!Vstat_runtime.Runtime} ([jobs] workers; result independent of
    the worker count).  It is one {!Mc_device.of_bsim} sweep named
    [label], under the process-wide run controls: under a deadline the
    sigmas are computed from the samples completed so far (degraded but
    unbiased). *)

type options = {
  tie_l_w : bool;
      (** apply the LER tie alpha2 = alpha3 (paper default: true) *)
  known_cinv_alpha : float;
      (** alpha5, measured directly (nm.uF/cm^2) *)
  weight_idsat : float;
      (** least-squares weight of the Idsat rows (default 2: on-current
          variance drives timing distributions downstream) *)
  weight_log10_ioff : float;
  weight_cgg : float;
}

val default_options : options

type result = {
  alphas : Variation.alphas;
  residual : float;              (** NNLS residual of the stacked system *)
  rows : int;                    (** equations in the stacked system *)
  options : options;
}

val extract :
  vs:Vs_statistical.t -> vdd:float -> options:options ->
  observation list ->
  result
(** Stacked extraction over all observations (least squares, non-negative in
    the squared alphas).
    @raise Invalid_argument on an empty observation list. *)

val extract_per_geometry :
  vs:Vs_statistical.t -> vdd:float -> options:options ->
  observation list ->
  (observation * Variation.alphas) list
(** Solve each geometry's 3x3 system individually (paper Fig. 2 compares
    this against the stacked solution). *)

val predicted_sigma :
  vs:Vs_statistical.t -> alphas:Variation.alphas -> vdd:float ->
  w_nm:float -> l_nm:float ->
  Sensitivity.metric -> float
(** Forward propagation (paper eq. (9)): metric sigma implied by a set of
    alphas through the VS sensitivities — used for contribution breakdowns
    (Fig. 3) and consistency checks. *)

val contribution_breakdown :
  vs:Vs_statistical.t -> alphas:Variation.alphas -> vdd:float ->
  w_nm:float -> l_nm:float ->
  Sensitivity.metric ->
  (Sensitivity.parameter * float) list
(** Per-parameter sigma contributions (quadrature components of
    {!predicted_sigma}), the decomposition plotted in Fig. 3. *)
