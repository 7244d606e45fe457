(** Importance-sampling rare-event estimator with likelihood-ratio
    reweighting.

    Sample [i] draws its coordinate vector from the proposal on its own
    counter-indexed substream, simulates the metric, and records the exact
    log likelihood ratio; the estimator is the sample mean of
    w_i · 1{fail_i} — unbiased for the true tail probability under the
    nominal density, with a normal-approximation confidence interval built
    from the sample variance of the {e weighted} indicators (so fat
    proposal tails honestly widen the interval).  A self-normalized
    variant and the Kish effective sample size are reported as
    diagnostics.

    Invariants inherited from the runtime, all covered by tests:
    - bit-identical results for any [--jobs] count (per-sample arrays are
      folded serially in index order);
    - a {!Proposal.standard} proposal reproduces plain Monte Carlo bit
      for bit (weights are exactly 1);
    - checkpointable: per-sample (metric, log-weight) pairs persist via
      {!Vstat_runtime.Checkpoint.float_pair_codec} under a fingerprint
      binding the problem and proposal, so interrupt+resume is
      bit-identical to an uninterrupted run. *)

type result = {
  label : string;
  proposal : Proposal.t;
  n_requested : int;
  n : int;             (** samples evaluated successfully *)
  n_hits : int;        (** unweighted tail-event count among them *)
  p_hat : float;       (** unbiased LR-reweighted tail probability *)
  ci_lo : float;       (** 95 % interval on [p_hat], clamped to [0, 1] *)
  ci_hi : float;
  sn_p_hat : float;    (** self-normalized estimate sum(wI)/sum(w) *)
  ess : float;         (** Kish effective sample size of the weights *)
  sum_weight : float;
  max_weight : float;
  metrics : float array;      (** per-sample metric, index order *)
  log_weights : float array;  (** per-sample log LR, index order *)
  stats : Vstat_runtime.Runtime.stats;
  complete : bool;     (** false when a deadline truncated the run *)
}

val estimate :
  proposal:Proposal.t ->
  problem:Problem.t ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  unit ->
  result
(** Run the estimator as one {!Vstat_runtime.Checkpoint.collect} sweep
    under the process-wide run controls (retry, checkpoint, deadline,
    signals), with its 20 % failure budget over simulate exceptions; the
    interval is at 95 % confidence.  Checkpoint labels
    derive from [problem.label ^ "-is"]; the snapshot fingerprint binds
    the problem identity and the proposal, so resuming under different
    rare-event parameters is rejected with a typed
    {!Vstat_runtime.Journal.Mismatch}.
    @raise Invalid_argument when [n < 2] or the proposal dimension
    disagrees with the problem.
    @raise Failure when the failure budget is exceeded.
    @raise Vstat_runtime.Checkpoint.Too_few_samples when a deadline
    leaves fewer than 2 samples.
    @raise Vstat_runtime.Checkpoint.Interrupted on a trapped signal. *)

val mc_equivalent_samples : result -> float
(** Plain-MC sample count that would match this run's interval half-width
    at 95 % confidence: p(1-p) · (z / half_width)², using the run's
    own [p_hat].  The ratio of this to [n] is the variance-reduction
    speedup recorded by [bench --rare].  [nan] when the interval is
    degenerate (no hits). *)

val pp : Format.formatter -> result -> unit
