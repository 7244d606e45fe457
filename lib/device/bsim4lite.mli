(** BSIM4-lite: the "golden" baseline compact model.

    A drift–diffusion, velocity-saturation MOSFET model in the structural
    style of BSIM4 (smoothed effective overdrive, mobility degradation,
    Esat-limited linear region, channel-length modulation, DIBL and Vth
    roll-off, body effect).  It stands in for the paper's industrial 40 nm
    BSIM4 design kit: it is the *data generator* whose Monte Carlo statistics
    the BPV procedure must map onto the VS model, and the *reference
    distribution* in every validation figure.

    It deliberately uses a different transport picture (drift–diffusion with
    velocity saturation) and a larger, more redundant parameter set than the
    VS model, mirroring the paper's setup where the two models agree on
    terminal behaviour but not on internal formulation. *)

type params = {
  w : float;        (** drawn channel width, m *)
  l : float;        (** drawn channel length, m *)
  dl : float;       (** length offset: Leff = l - dl, m *)
  dw : float;       (** width offset: Weff = w - dw, m *)
  cox : float;      (** oxide capacitance, F/m^2 *)
  vth0 : float;     (** long-channel zero-bias threshold, V *)
  k1 : float;       (** body-effect coefficient, sqrt(V) *)
  phis : float;     (** surface potential, V *)
  dvt0 : float;     (** Vth roll-off amplitude, V *)
  dvt_l : float;    (** Vth roll-off characteristic length, m *)
  eta0 : float;     (** DIBL coefficient amplitude, V/V *)
  eta_l : float;    (** DIBL characteristic length, m *)
  u0 : float;       (** low-field mobility, m^2/(V.s) *)
  ua : float;       (** first-order mobility degradation, 1/V *)
  ub : float;       (** second-order mobility degradation, 1/V^2 *)
  vsat : float;     (** saturation velocity, m/s *)
  n_ss : float;     (** subthreshold swing ideality *)
  lambda : float;   (** channel-length modulation, 1/V *)
  phit : float;     (** thermal voltage, V *)
  cov : float;      (** overlap + fringe capacitance per width, F/m *)
}

val leff : params -> float
val weff : params -> float

val vth : params -> vds:float -> vbs:float -> float
(** Full threshold voltage including body effect, roll-off and DIBL. *)

val canonical : params -> Device_model.canonical_eval
(** The model's one kernel: canonical-quadrant values, plus the analytic
    bias partials (conductances and transcapacitances, the engine's
    Jacobian) when the array has {!Device_model.grad_length} slots.  The
    partials agree with central finite differences of the values (checked
    in tests). *)

val device :
  ?name:string -> polarity:Device_model.polarity -> params -> Device_model.t

val parameter_count : int
(** Independent parameters of this implementation — larger than the VS
    model's, as in the paper's complexity comparison. *)
