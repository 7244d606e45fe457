(** The MIT Virtual Source (MVS) ultra-compact MOSFET model.

    Implements the charge-based formulation of Khakifirooz, Nayfeh &
    Antoniadis (IEEE TED 2009) used by the paper:

    - drain current [Id = W . Fsat . Qixo . vxo] (paper eq. (2));
    - empirical saturation function
      [Fsat = (Vds/Vdsat) / (1 + (Vds/Vdsat)^beta)^(1/beta)] (eq. (3));
    - virtual-source charge
      [Qixo = Cinv n phit ln(1 + exp((Vgs - (VT - alpha phit Ff)) / (n phit)))]
      with the Fermi-like inversion transition function [Ff];
    - DIBL threshold shift [VT = VT0 - delta(Leff) Vds] (eq. (4)) with an
      exponential [delta(Leff)] roll-up for short channels;
    - a simple body-effect term and a blended 50/50 -> 60/40 channel-charge
      partition plus linear overlap capacitances for the C–V behaviour.

    All parameters are SI; use {!Cards} for customary-unit construction. *)

type dibl = {
  delta0 : float;   (** DIBL coefficient at the nominal channel length, V/V *)
  l_nominal : float;(** nominal channel length the card was extracted at, m *)
  l_scale : float;  (** exponential roll-up length, m *)
}
(** Channel-length dependence of DIBL, [delta(L) = delta0 exp((Ln - L)/ls)]. *)

val delta_of_length : dibl -> float -> float
(** Evaluate [delta(Leff)]. *)

type params = {
  w : float;          (** channel width, m *)
  l : float;          (** effective channel length Leff, m *)
  cinv : float;       (** effective gate-to-channel capacitance, F/m^2 *)
  vt0 : float;        (** zero-Vds threshold voltage, V *)
  dibl : dibl;        (** DIBL model evaluated at [l] *)
  n0 : float;         (** subthreshold ideality factor *)
  nd : float;         (** punch-through ideality increase, 1/V *)
  vxo : float;        (** virtual-source injection velocity, m/s *)
  mu : float;         (** low-field carrier mobility, m^2/(V.s) *)
  beta : float;       (** saturation-transition exponent (approx 1.8) *)
  alpha_q : float;    (** charge-transition constant (approx 3.5) *)
  phit : float;       (** thermal voltage kT/q, V *)
  gamma_body : float; (** body-effect coefficient, sqrt(V) *)
  phib : float;       (** surface potential for body effect, V *)
  cov : float;        (** gate overlap + fringe capacitance per width, F/m *)
  ballistic_b : float;(** ballistic efficiency B = lambda/(lambda + 2 l),
                          used by the statistical vxo slaving (eqs. (5)-(6)) *)
}

val delta : params -> float
(** DIBL coefficient of this instance, [delta_of_length p.dibl p.l]. *)

val canonical : params -> Device_model.canonical_eval
(** The model's one kernel: canonical-quadrant values, plus the analytic
    bias partials (conductances and transcapacitances, the engine's
    Jacobian) when the array has {!Device_model.grad_length} slots.  The
    partials agree with central finite differences of the values (checked
    in tests). *)

val device :
  ?name:string -> polarity:Device_model.polarity -> params -> Device_model.t
(** Instantiate as a circuit-ready device. *)

val dc_parameter_count : int
(** Number of independent DC parameters of the model (the paper quotes 11;
    this implementation's count, used in documentation tests). *)
