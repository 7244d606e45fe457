(** Statistical blockade: classifier-filtered Monte Carlo for tail events.

    Two deterministic phases on disjoint segments of one substream family:

    1. {b Pilot.}  [pilot_n] plain Monte Carlo samples (substream indices
       [0 .. pilot_n-1]) are fully simulated; an OLS linear model of the
       metric on the coordinates is fitted ({!Classifier}), along with a
       blockade cutoff: the classifier must predict a sample {e safer}
       than the pilot's [margin] quantile (default 0.90 of the relevant
       tail mass) for the simulation to be skipped.  The gap between the
       cutoff and the true threshold is the safety margin absorbing
       classifier error — the Singhee–Rutenbar recipe.
    2. {b Main.}  [n] samples (substream indices [pilot_n ..
       pilot_n+n-1]) draw coordinates only; candidates past the cutoff
       are simulated, the rest are counted as non-failing without a
       simulation.  The estimate is k / n over {e all} [n] trials — the
       blockade correction that keeps the denominator honest — with a
       Wilson interval.

    Because the filter decision is a pure function of the coordinates and
    the pilot-trained classifier, the whole procedure is bit-identical
    across [--jobs] counts, and both phases checkpoint independently
    (labels [<label>-blockade-pilot] / [<label>-blockade-main]); the main
    phase's fingerprint embeds the classifier digest, so a resume with a
    different classifier (different pilot) is rejected as a typed
    identity mismatch — the journal carries the classifier state. *)

type result = {
  label : string;
  n_requested : int;
  n : int;              (** main-phase trials evaluated *)
  n_pilot : int;        (** pilot simulations (all full simulations) *)
  n_simulated : int;    (** main-phase full simulations (candidates) *)
  n_hits : int;         (** confirmed tail events among candidates *)
  p_hat : float;        (** k / n over all main-phase trials *)
  ci_lo : float;        (** 95 % Wilson interval *)
  ci_hi : float;
  cutoff : float;       (** classifier prediction that triggers simulation *)
  margin : float;       (** quantile the cutoff was placed at *)
  classifier : Classifier.t;
  residual_std : float; (** pilot residual sigma of the classifier *)
  pilot_metrics : float array;
  stats : Vstat_runtime.Runtime.stats;  (** main-phase pool statistics *)
  complete : bool;
}

val estimate :
  ?pilot_n:int ->
  problem:Problem.t ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  unit ->
  result
(** A margin of 0.90 places the blockade cutoff at the pilot
    metric's tail quantile: for a lower-tail problem the cutoff is the
    pilot's (1 - margin) quantile minus one classifier residual sigma, so
    roughly the unsafest 10% of predicted metrics — plus a model-error
    buffer — get simulated.  [pilot_n] defaults to [max 100 (n/20)].
    Both phases are {!Vstat_runtime.Checkpoint.collect} sweeps under the
    process-wide run controls, each with a 20 % failure budget; the pilot
    needs [dim + 2] survivors to fit the classifier, the main phase 2.
    The Wilson interval is at 95 % confidence.
    @raise Invalid_argument when [n < 2] or [pilot_n] is too small to fit
    the classifier.
    @raise Failure when a phase exceeds the failure budget.
    @raise Vstat_runtime.Checkpoint.Too_few_samples when a deadline
    leaves a phase with too few survivors.
    @raise Vstat_runtime.Checkpoint.Interrupted on a trapped signal. *)

val simulation_fraction : result -> float
(** (pilot + candidate simulations) / (pilot + n): the fraction of full
    simulations a plain-MC run of the same trial count would have paid —
    the blockade speedup is its inverse. *)

val pp : Format.formatter -> result -> unit
