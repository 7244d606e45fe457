(** Device-level Monte Carlo: sample mismatch instances and collect the
    electrical metric distributions (paper Table III, Figs. 3 and 4).

    Every run goes through {!Vstat_runtime.Checkpoint.collect}: sample [i]
    draws from [Rng.substream] index [i] (the base seed is one draw off
    [rng]), so the returned arrays are index-stable and bit-identical for
    any [jobs], journaled or not. *)

type samples = {
  idsat : float array;        (** A *)
  log10_ioff : float array;
  cgg : float array;          (** F *)
}

val of_vs :
  label:string ->
  Vs_statistical.t -> rng:Vstat_util.Rng.t -> n:int ->
  w_nm:float -> l_nm:float -> vdd:float -> samples

val of_bsim :
  ?jobs:int ->
  ?fingerprint:string ->
  label:string ->
  Bsim_statistical.t -> rng:Vstat_util.Rng.t -> n:int ->
  w_nm:float -> l_nm:float -> vdd:float -> samples
(** [of_vs]/[of_bsim] draw [n] devices from the statistical model and
    measure all three metrics on each: one
    {!Vstat_runtime.Checkpoint.collect} sweep named [label] (its snapshot
    name, so each run of an experiment needs its own) under the
    process-wide run controls.  The failure budget is zero: the metrics
    are closed-form, so any sampler exception is a bug.  Under a deadline
    the arrays are compacted over the completed samples (shorter, still
    index-ordered).  @raise Invalid_argument when [n < 2] (a run keeps
    at least 2 samples or raises
    {!Vstat_runtime.Checkpoint.Too_few_samples}). *)

val summary :
  samples ->
  Vstat_runtime.Accum.t * Vstat_runtime.Accum.t * Vstat_runtime.Accum.t
(** Streaming-accumulator summaries of (idsat, log10_ioff, cgg) — count,
    mean, unbiased std — as used by BPV observation. *)
