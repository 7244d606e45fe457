(** SRAM yield at deep-sigma failure levels: the rare-event experiment.

    The failure event is [SNM < threshold] for a 6T cell at a (typically
    lowered) supply voltage — the classic read-stability yield question
    the paper's statistical VS model exists to answer cheaply.  The
    variation space is the BPV coordinate vector: 6 transistors x 5
    independent Gaussian parameters (VT0, Leff, Weff, mu, Cinv) = 30
    standard-normal coordinates.  The rare-event problem maps a coordinate
    vector to an SNM through a {e z-driven} technology handle — the same Pelgrom
    sigmas and {!Vstat_core.Vs_statistical.apply_shifts} couplings as the
    stochastic Monte Carlo technology, but driven by explicit coordinates
    so importance sampling can reweight the draw.

    {!run} cross-validates three estimators of the same tail probability:
    plain Monte Carlo (importance sampling under the standard proposal,
    which is bit-identical to it), sigma-scaled importance sampling, and
    statistical blockade.  Agreement means the 95% intervals of the two
    accelerated estimators each overlap the brute-force interval. *)

type t = {
  vdd : float;
  threshold : float;
  sigma_shift : float;
      (** scale of the IS proposal around its pilot-derived mean shift *)
  plain : Vstat_rare.Importance.result;
      (** standard proposal — bit-identical to plain Monte Carlo *)
  is : Vstat_rare.Importance.result;
      (** mean-shifted proposal aimed by a small pilot run *)
  blockade : Vstat_rare.Blockade.result;
  is_agrees : bool;        (** IS interval overlaps the plain interval *)
  blockade_agrees : bool;  (** blockade interval overlaps likewise *)
}

val estimate_plain :
  ?n:int ->
  ?seed:int ->
  ?vdd:float ->
  ?threshold:float ->
  Vstat_core.Pipeline.t ->
  Vstat_rare.Importance.result
(** Brute-force Monte Carlo (standard-proposal importance sampling —
    bit-identical to plain MC, weights exactly 1).  It runs under the
    problem label plus ["-plain"] (result label and snapshot
    [<problem>-plain-is]), so its journal never collides with
    {!estimate_is}'s. *)

val estimate_is :
  ?n:int ->
  ?seed:int ->
  ?vdd:float ->
  ?threshold:float ->
  ?sigma_shift:float ->
  ?pilot_n:int ->
  Vstat_core.Pipeline.t ->
  Vstat_rare.Importance.result
(** Importance sampling under the pilot-aimed defensive mixture: a
    [pilot_n]-sample pilot (default 200) records per-lobe noise margins,
    one linear response surface per butterfly lobe yields that lobe's
    design point, and the proposal mixes the nominal density with both
    lobe cones ([sigma_shift], default 1.0, scales the cones). *)

val estimate_blockade :
  ?n:int ->
  ?seed:int ->
  ?vdd:float ->
  ?threshold:float ->
  ?pilot_n:int ->
  Vstat_core.Pipeline.t ->
  Vstat_rare.Blockade.result
(** Statistical blockade on the cell SNM ({!Vstat_rare.Blockade}). *)

val run :
  ?n:int ->
  ?seed:int ->
  ?vdd:float ->
  ?threshold:float ->
  ?sigma_shift:float ->
  ?pilot_n:int ->
  Vstat_core.Pipeline.t ->
  t
(** Brute-force golden, importance sampling and blockade with [n]
    samples each (default 4000), all on the cell's READ SNM.
    The IS proposal is mean-shifted: a [pilot_n]-sample pilot (default
    200, journaled like every other run) locates the failure direction
    with {!Vstat_rare.Proposal.from_pilot}, and [sigma_shift] (default
    1.0) additionally widens the proposal around that shift.  [pilot_n]
    also sizes the blockade pilot.  Defaults [vdd] 0.80 V and
    [threshold] 0.025 V put the failure probability near 2e-3 for the
    default pipeline, so the cross-validation stays affordable on one
    core.  All estimators run on independent deterministic substream
    families derived from [seed] (default 61). *)

val pp : Format.formatter -> t -> unit
