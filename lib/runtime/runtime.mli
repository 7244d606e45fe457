(** Deterministic, fault-tolerant parallel Monte Carlo execution engine.

    Every Monte Carlo loop in the repository routes through this module.
    The contract:

    - {b Determinism.}  Work is addressed by sample index.  Combined with
      counter-indexed RNG substreams ({!Vstat_util.Rng.substream}), sample
      [i] computes exactly the same value whether the pool runs 1 worker or
      16, in any scheduling order: results land in an index-stable array,
      so [jobs:1] and [jobs:n] outputs are bit-identical.  The retry ladder
      preserves this: attempts run inline on the worker that owns the
      sample, every attempt restarts from a fresh copy of the sample's own
      substream, and the attempt count at which a sample succeeds is a pure
      function of the sample index.
    - {b Fault policy.}  A sample that raises is captured as an [Error]
      cell carrying a typed category (via {!register_classifier}), the
      printed exception and the per-attempt failure history — never a
      torn run.  {!check_budget} enforces a failure budget (zero is the
      zero-tolerance policy) with a per-category census.  An optional
      [retry] count re-runs failed samples with an escalating attempt
      counter before they are declared dead.
    - {b Observability.}  Each run reports wall time, throughput,
      per-worker sample tallies and retry/recovery counts ({!stats});
      [Logs] gets a debug line per run ("vstat.runtime" source).

    One pool loop serves every worker count: it chunk-steals indices off a
    shared counter and polls [should_stop] once before each sample.
    [jobs:n] runs it on the calling domain plus [n-1] spawned domains
    (OCaml 5); [jobs:1] runs it on the calling domain alone. *)

type attempt_failure = {
  attempt : int;      (** 0-based attempt number that failed *)
  category : string;  (** classified category of that attempt's exception *)
  detail : string;    (** [Printexc.to_string] of that attempt's exception *)
}

type failure = {
  index : int;        (** sample index that raised *)
  exn_name : string;  (** exception constructor, e.g. ["Failure"] *)
  category : string;
      (** classified failure category: the first registered classifier's
          answer, falling back to [exn_name].  The circuit layer maps its
          typed solver diagnostics here (e.g. ["dc_no_convergence"],
          ["injected_fault"]), so budgets and censuses report {e why}
          samples die rather than which constructor carried the news. *)
  detail : string;    (** [Printexc.to_string] of the final exception *)
  history : attempt_failure list;
      (** earlier failed attempts under the retry ladder, oldest first
          (empty when the first attempt was also the last) *)
}

type stats = {
  jobs : int;               (** workers actually used *)
  n : int;                  (** samples requested *)
  wall_s : float;
      (** wall-clock time of the run, from {!Deadline.now_ns}
          (CLOCK_MONOTONIC) *)
  samples_per_sec : float;
  per_worker : int array;   (** samples executed by each worker; length [jobs] *)
  retried_samples : int;    (** samples that needed more than one attempt *)
  recovered_samples : int;  (** retried samples that eventually succeeded *)
}

type 'a run = {
  cells : ('a, failure) result array;  (** index-stable, length [n] *)
  attempts : int array;
      (** attempts consumed per sample (1 = first try); length [n] *)
  stats : stats;
}

val register_classifier : (exn -> string option) -> unit
(** Register a failure classifier consulted by {!check_budget}'s census and
    {!failure} capture (most recently registered first).  Classifiers are
    registered once at library-initialization time; returning [None] passes
    to the next classifier, ending at the exception constructor name. *)

val default_jobs : unit -> int
(** Worker count used when [?jobs] is omitted: the value forced by
    {!set_default_jobs} if any, else the [VSTAT_JOBS] environment variable,
    else [Domain.recommended_domain_count ()]. *)

val set_default_jobs : int -> unit
(** Force the process-wide default ([--jobs] in the CLIs). *)

type stop_cause =
  | Completed  (** every scheduled index was evaluated *)
  | Stopped    (** the pool drained early ([should_stop] fired) *)

type 'a partial = {
  slots : ('a, failure) result option array;
      (** length [n], addressed by sample index; [None] = not evaluated
          in this run (not scheduled, or the pool stopped first) *)
  slot_attempts : int array;
      (** attempts consumed per sample; 0 = not evaluated *)
  partial_stats : stats;   (** [n] = scheduled indices, not the domain *)
  cause : stop_cause;
  evaluated : int;         (** scheduled indices actually evaluated *)
}

val map_subset_attempt_samples :
  ?jobs:int ->
  ?on_progress:(completed:int -> n:int -> unit) ->
  ?retry:int ->
  ?should_stop:(unit -> bool) ->
  n:int ->
  indices:int array ->
  f:(attempt:int -> int -> 'a) ->
  unit ->
  'a partial
(** The core every run goes through ({!Checkpoint.run} drives it
    directly): evaluate [f ~attempt i] for each [i] in [indices] (any
    subset of [0, n)) across the worker pool.  [f] must be safe to call
    concurrently from several domains.  [on_progress] is invoked under a
    mutex from worker context after each chunk.

    [retry] is the number of attempts per sample, whatever the failure
    (default 1): a failed sample is re-run in place (same index, same
    worker) until it succeeds or [retry] attempts are spent, and [f]
    receives the 0-based attempt number so the call site can escalate per attempt (halve the
    step, raise the iteration cap, ...).  The value of sample [i] is
    whatever [f ~attempt:k i] first returns without raising; since the
    ladder is evaluated inline per index, that value is identical under
    any [jobs].

    [should_stop] is polled once before each sample (so with [jobs:1] a
    counting watchdog stops at a fixed index) — a deadline watchdog or
    signal flag drains the pool gracefully without tearing an in-flight
    sample (its retry ladder runs to completion).  Results land in
    index-addressed [slots], so evaluating a subset yields bit-identical
    cells to the same indices of a full run, under any [jobs].
    @raise Invalid_argument when [n < 0], [retry < 1] or an index falls
    outside [0, n). *)

val map_rng_samples :
  ?jobs:int ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  f:(Vstat_util.Rng.t -> 'a) ->
  unit ->
  'a run
(** The full-run entry point: derives a base seed from [rng] (advancing it
    by one draw) and evaluates [f] on the substream
    [Rng.substream ~seed:base ~index:i] for every [i] in [0 .. n-1] across
    the worker pool, one attempt per sample.  [f] must be safe to call
    concurrently from several domains (pure up to private state — true of
    all samplers here, which derive everything from their substream).
    This is the canonical way to make an existing [~rng] Monte Carlo loop
    order- and worker-independent.  @raise Invalid_argument when
    [n < 0]. *)

val values : 'a run -> 'a array
(** Successful samples in index order (failures skipped). *)

val ok_count : 'a run -> int
val failed_count : 'a run -> int

val check_budget : ?label:string -> max_failure_frac:float -> 'a run -> unit
(** Enforce the failure budget: if more than [max_failure_frac * n] samples
    failed, raise [Failure] whose message includes the failed/total counts
    and the per-category census.  Surviving failures below the budget are
    reported once through [Logs.warn] (category counts, first detail)
    rather than one line per sample.  An empty run ([n = 0]) passes any
    budget silently. *)
