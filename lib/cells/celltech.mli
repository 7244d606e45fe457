(** Technology handle consumed by the benchmark cells.

    A [t] yields transistor instances on demand.  A *nominal* technology
    returns the same deterministic device every call; a *statistical*
    technology (built by [Vstat_core.Mc_circuit]) draws a fresh mismatch
    sample per call, so every transistor in a cell gets independent
    within-die variations — exactly the sampling model of the paper. *)

type t = {
  label : string;  (** e.g. "bsim-golden" or "vs-statistical" *)
  vdd : float;     (** supply voltage for cells built on this handle, V *)
  l_nm : float;    (** drawn channel length for all transistors, nm *)
  nmos : w_nm:float -> Vstat_device.Device_model.t;
  pmos : w_nm:float -> Vstat_device.Device_model.t;
}

val nominal_vs_seed : ?vdd:float -> unit -> t
[@@vstat.allow "unused-export", "unused-optional"]
(** Deterministic VS technology using the hand-written seed cards (the
    extracted statistical technology lives in [Vstat_core]).  Granted as a
    shared fixture: test_cells, test_experiments, test_runtime and
    chaos_smoke build their nominal cells on it, the last three at their
    own [vdd]. *)

val with_fault_injection :
  Vstat_device.Fault_inject.config -> key:int -> t -> t
(** Chaos harness: decide deterministically from [(config.seed, key)]
    whether this technology handle carries a fault, and if so arm it on the
    transistor whose creation ordinal (netlist build order, both polarities
    counted together, modulo 4)
    matches the plan.  [key] should mix the Monte Carlo sample index and
    the retry attempt, so injection is per-sample reproducible,
    jobs-independent, and independent across attempts.  Returns the handle
    unchanged when the draw decides no fault. *)
