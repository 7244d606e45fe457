(** First-class MOSFET compact-model instances.

    A [t] is a fully-instantiated four-terminal transistor: geometry and
    process parameters are already bound, so the circuit simulator only sees
    node voltages.  Polarity handling (PMOS as a mirrored NMOS) and
    source–drain symmetry (swap when the applied Vds is negative) are
    implemented here once, so concrete models ({!Vs_model}, {!Bsim4lite})
    only provide equations for the canonical NMOS, Vds >= 0 quadrant. *)

type polarity = Nmos | Pmos

type terminal_state = {
  id : float;  (** drain-to-source channel current, A (into drain terminal) *)
  qg : float;  (** gate terminal charge, C *)
  qd : float;  (** drain terminal charge, C *)
  qs : float;  (** source terminal charge, C *)
  qb : float;  (** bulk terminal charge, C *)
}

type canonical_eval = vgs:float -> vds:float -> vbs:float -> terminal_state
(** Model equations in the canonical quadrant.  Caller guarantees
    [vds >= 0]; values follow NMOS sign conventions (id >= 0 for normal
    operation, charges in natural NMOS polarity). *)

type canonical_grad = {
  d_vgs : terminal_state;  (** partials of every output w.r.t. vgs *)
  d_vds : terminal_state;  (** partials w.r.t. vds *)
  d_vbs : terminal_state;  (** partials w.r.t. vbs *)
}
(** Gradient of the canonical outputs: each field reuses {!terminal_state}
    as a container of the five partial derivatives w.r.t. one canonical
    bias variable. *)

type canonical_eval_derivs =
  vgs:float -> vds:float -> vbs:float -> terminal_state * canonical_grad
(** Canonical equations evaluated together with their analytic bias
    derivatives.  Must agree with the model's {!canonical_eval} values. *)

type derivs = {
  mutable v_id : float;  (** channel current, terminal convention *)
  mutable v_qg : float;
  mutable v_qd : float;
  mutable v_qs : float;
  mutable v_qb : float;
  did : float array;
      (** length 4: dId/dV at terminals (g, d, s, b) — gm, gds, gms, gmb *)
  dq : float array;
      (** length 16, row-major transcapacitance block: row = charge terminal
          (g, d, s, b), column = voltage terminal (g, d, s, b) *)
}
(** Caller-provided output buffer for {!eval_derivs}: the circuit engine
    allocates one per compiled system and reuses it every Newton iteration,
    so the analytic hot path performs no per-evaluation allocation. *)

val make_derivs : unit -> derivs
(** Fresh zeroed buffer. *)

type eval_derivs = vg:float -> vd:float -> vs:float -> vb:float -> derivs -> unit
(** Evaluate current, charges, conductances and transcapacitances at real
    terminal voltages, writing into the supplied buffer. *)

type t = {
  name : string;
  polarity : polarity;
  width : float;    (** electrical channel width, m *)
  length : float;   (** electrical channel length, m *)
  eval : vg:float -> vd:float -> vs:float -> vb:float -> terminal_state;
  eval_derivs : eval_derivs option;
      (** Analytic derivative path; [None] falls back to the engine's
          finite-difference Jacobian (5 evals per linearization). *)
}

val make :
  name:string ->
  polarity:polarity ->
  width:float ->
  length:float ->
  ?canonical_derivs:canonical_eval_derivs ->
  canonical:canonical_eval ->
  unit ->
  t
(** Wrap canonical equations with polarity mirroring and Vds < 0 swap.
    When [canonical_derivs] is given, the same mirroring/swap chain rule is
    applied to the analytic derivatives and exposed as [eval_derivs]. *)

val without_derivs : t -> t
(** The same device with the analytic path stripped — forces the engine's
    finite-difference fallback (ablation benches and tests). *)

val ids : t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Drain current only (sign follows the real terminal convention: positive
    current flows into the drain for an NMOS in normal operation). *)

val gm : ?dv:float -> t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Transconductance dId/dVg by central finite difference. *)

val gds : ?dv:float -> t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Output conductance dId/dVd. *)

val cgg : ?dv:float -> t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Total gate capacitance dQg/dVg (F), central finite difference. *)
