(** Device-level Monte Carlo: sample mismatch instances and collect the
    electrical metric distributions (paper Table III, Figs. 3 and 4).

    Every run goes through {!Vstat_runtime.Checkpoint.run}: sample [i]
    draws from [Rng.substream] index [i] (the base seed is one draw off
    [rng]), so the returned arrays are index-stable and bit-identical for
    any [jobs], journaled or not. *)

type samples = {
  idsat : float array;        (** A *)
  log10_ioff : float array;
  cgg : float array;          (** F *)
}

val of_vs :
  ?jobs:int ->
  ?checkpoint:Vstat_runtime.Checkpoint.settings ->
  ?deadline:(unit -> bool) ->
  ?signals:int list ->
  ?label:string ->
  ?fingerprint:string ->
  Vs_statistical.t -> rng:Vstat_util.Rng.t -> n:int ->
  w_nm:float -> l_nm:float -> vdd:float -> samples

val of_bsim :
  ?jobs:int ->
  ?checkpoint:Vstat_runtime.Checkpoint.settings ->
  ?deadline:(unit -> bool) ->
  ?signals:int list ->
  ?label:string ->
  ?fingerprint:string ->
  Bsim_statistical.t -> rng:Vstat_util.Rng.t -> n:int ->
  w_nm:float -> l_nm:float -> vdd:float -> samples
(** [of_vs]/[of_bsim] draw [n] devices from the statistical model and
    measure all three metrics on each.  [jobs] defaults to
    {!Vstat_runtime.Runtime.default_jobs}; any sampler exception is
    re-raised (zero failure budget).

    [checkpoint], [deadline], [signals], [label] (default ["mc_device"])
    and [fingerprint] are passed to {!Vstat_runtime.Checkpoint.run}:
    with [checkpoint] completed samples are journaled and a resumed or
    uninterrupted run yields bit-identical arrays.  When the deadline
    fires, the arrays are compacted over the completed samples (shorter,
    still index-ordered); a trapped signal raises
    {!Vstat_runtime.Checkpoint.Interrupted}. *)

val summary :
  samples ->
  Vstat_runtime.Accum.t * Vstat_runtime.Accum.t * Vstat_runtime.Accum.t
(** Streaming-accumulator summaries of (idsat, log10_ioff, cgg) — count,
    mean, unbiased std — as used by BPV observation. *)
