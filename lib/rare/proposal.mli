(** Proposal distributions over the standardized variation space.

    Every statistical quantity in the repository is driven by independent
    standard-normal coordinates (the per-parameter mismatch shifts divided
    by their Pelgrom sigmas).  A proposal replaces the nominal N(0, I)
    sampling density with an equal-weight mixture of K Gaussian
    components N(mean_k, scale^2 I) — sigma-scaled to fatten every tail
    at once when the failure direction is unknown, mean-shifted toward a
    known failure region, or a multi-cone mixture when the failure set
    has several modes (an SRAM cell fails through either butterfly lobe)
    — and supplies the exact log likelihood ratio log(f(z)/g(z)) that
    reweights each sample back to the nominal distribution.  Including
    the zero mean as one mixture component makes the proposal
    {e defensive}: every weight is then bounded by K, so no single
    sample can dominate the estimate.

    Determinism contract: {!draw} consumes exactly [dim] Gaussian
    variates from the given RNG for a single-component proposal, and one
    bounded int (the component pick) plus [dim] Gaussians for a mixture —
    a fixed count per proposal, so a sample's coordinates stay a pure
    function of its substream regardless of worker count. *)

type t = private {
  dim : int;  (** standard-normal coordinates per sample *)
  means : float array array;
      (** per-component coordinate means, each of length [dim] *)
  scale : float;  (** common sigma multiplier, > 0 *)
}

val standard : dim:int -> t
(** The nominal N(0, I) density itself: every weight is exactly 1
    ({!log_weight} returns exactly 0.0), so an estimator driven by
    [standard] {e is} plain Monte Carlo, bit for bit. *)

val mixture : ?scale:float -> means:float array array -> unit -> t
(** Equal-weight mixture of N(mean_k, scale^2 I) components.  Pass the
    zero vector as one component for a defensive mixture (weights
    bounded by the component count).  @raise Invalid_argument on an
    empty component list, ragged or non-finite means, or bad [scale]. *)

val from_pilot :
  zs:float array array -> metrics:float array ->
  tail:[ `Upper | `Lower ] -> threshold:float ->
  ?scale:float -> unit -> t
(** Build a mean-shifted proposal from a pilot run: average the
    coordinates of the pilot samples in (or nearest) the failure region —
    the samples beyond [threshold], padded to the worst 5 % of the pilot
    when fewer crossed — giving the
    center-of-gravity shift of Kanj-style mean-shift importance sampling.
    [scale] (default 1.0) additionally widens the proposal.
    @raise Invalid_argument on empty/mismatched pilot data. *)

val draw : t -> Vstat_util.Rng.t -> float array
(** Fresh coordinate vector of length [dim]; consumes exactly [dim]
    Gaussian variates (plus one bounded int for a mixture). *)

val log_weight : t -> float array -> float
(** Exact log likelihood ratio log(f(z)/g(z)) of the nominal density f
    over this proposal g at the drawn coordinates [z].  Exactly 0.0 for a
    {!standard} proposal.  @raise Invalid_argument on a length
    mismatch. *)

val to_string : t -> string
(** Compact description for run labels and checkpoint fingerprints, e.g.
    ["is(dim=30,scale=1,k=3,shift=3.2,means=1a2b3c4d)"].  Mean vectors
    are digested, not printed elementwise. *)
