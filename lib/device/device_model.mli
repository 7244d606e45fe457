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

type canonical_eval =
  vgs:float -> vds:float -> vbs:float -> float array -> terminal_state
(** A model's one kernel: its equations in the canonical quadrant.  Caller
    guarantees [vds >= 0]; values follow NMOS sign conventions (id >= 0 for
    normal operation, charges in natural NMOS polarity).  When the array
    argument has at least {!grad_length} slots, the kernel also writes the
    analytic partials of its outputs there; a shorter array (value callers
    pass [[||]]) asks for values only.  The values are the same bits either
    way. *)

val grad_length : int
(** 15: the partials of (id, qg, qd, qs, qb), in that order, w.r.t. vgs in
    slots 0-4, w.r.t. vds in slots 5-9 and w.r.t. vbs in slots 10-14. *)

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
  grad : float array;
      (** length {!grad_length}: scratch for the canonical partials, before
          the terminal chain rule *)
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
      (** Analytic derivative path.  {!make} always builds it, and the
          circuit engine requires it: [Engine.compile] rejects a MOSFET
          whose device has [None]. *)
}

val make :
  name:string ->
  polarity:polarity ->
  width:float ->
  length:float ->
  canonical:canonical_eval ->
  unit ->
  t
(** Wrap canonical equations with polarity mirroring and Vds < 0 swap.
    [eval] runs the kernel for values only; [eval_derivs] runs it with the
    buffer's [grad] scratch and applies the same mirroring/swap chain rule
    to the partials. *)

val ids : t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Drain current only (sign follows the real terminal convention: positive
    current flows into the drain for an NMOS in normal operation). *)

val gm : t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Transconductance dId/dVg by central finite difference (step 10 uV). *)

val cgg : t -> vg:float -> vd:float -> vs:float -> vb:float -> float
(** Total gate capacitance dQg/dVg (F), central finite difference (step
    10 uV). *)
