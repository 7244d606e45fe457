(** Deterministic fault injection for compact-model instances.

    Wraps a {!Device_model.t} so that, from a chosen model-evaluation
    ordinal onward, the device misbehaves in a configured way.  The point
    is chaos testing of the solver's failure path: every fault decision is
    a pure function of [(config.seed, key)] — no global state, no clock, no
    OS randomness — so an injected run is reproducible and independent of
    worker count or scheduling.  The caller derives [key] from the Monte
    Carlo sample index (and retry attempt), making injection per-sample
    deterministic yet independent across retry attempts.

    Key scheme: [mix64 (seed * golden + mix64 key)] (fmix64 finalizer)
    yields a uniform [0,1) draw decided against [rate]; on a hit, a second
    mix selects which device (by creation ordinal modulo 4)
    and which evaluation ordinal the fault engages at.  Once engaged, the
    fault persists for the remaining life of the wrapped instance. *)

type kind =
  | Nan_current      (** channel current becomes NaN *)
  | Inf_current      (** channel current becomes +inf *)
  | Perturb_derivs   (** analytic conductances scaled 3x; residual honest *)
  | Raise            (** the model evaluation raises {!Injected} *)

exception Injected of string
(** Raised by a [Raise]-kind fault; classified as ["injected_fault"] by the
    runtime failure census (registration lives in [Vstat_circuit.Diag]). *)

type config = {
  rate : float;  (** probability a given key carries a fault, in [0,1] *)
  kind : kind;
  seed : int;    (** decorrelates the injection stream from the MC stream *)
}

type plan = {
  device_ordinal : int;  (** which device (creation order mod span) faults *)
  at_eval : int;
      (** 1-based evaluation ordinal the fault engages at.  It counts the
          calls the circuit engine actually makes, and the engine skips a
          call at the voltages of the device's previous one, so a plan
          engages later in simulated time than the engine's iteration
          count suggests. *)
  kind : kind;
}

val plan : config -> key:int -> plan option
(** Deterministic decision for one key: [None] (no fault — probability
    [1 - rate]) or the fault placement.  Same config and key always yield
    the same answer.
    @raise Invalid_argument when [config.rate] is NaN or outside [0,1] —
    a hand-built config bypassing {!parse_spec} is validated here. *)

val wrap : plan -> Device_model.t -> Device_model.t
[@@vstat.allow "unused-export"]
(** The same device with the fault armed on both the value and analytic
    derivative paths (shared evaluation counter).  Granted as a fault
    seam: test_device arms one device directly, without {!arm}'s
    ordinal count. *)

val arm : plan -> Device_model.t -> Device_model.t
(** [arm plan] is a fresh stateful mapper for one circuit build: it counts
    the devices passed through it (creation order, both polarities
    together) and {!wrap}s the one whose ordinal modulo 4
    is [plan.device_ordinal], returning every other device unchanged.
    Use one mapper per circuit instance. *)

val parse_spec : string -> (config, string) result
(** Parse the CLI syntax [RATE[:KIND]], e.g. ["0.05"] or ["0.05:nan"];
    kind defaults to [Raise]; the seed is [0x1d0a]. *)

val spec_to_string : config -> string

(** Service-layer fault injection: chaos for the {e daemon}, not the
    device.  A plan here never changes what a sample computes — a [Stall]
    only delays the worker, an [Abort] raises {!Injected} {e before} the
    sample body runs (so the retry ladder re-runs the identical substream
    and recovers the identical value), a [Crash] asks the owning worker
    domain to die at the next sample boundary (the supervisor requeues the
    job, which resumes from its checkpoint journal), and a [Hang] freezes
    the worker's heartbeat long enough for the hung-job watchdog to fire.
    That value-neutrality is what the daemon chaos drill leans on: a
    fault-injected service must still serve bit-identical results.
    Decisions use the same fmix64 [(seed, key)] scheme as the device
    planner (offset so a shared seed does not correlate the streams);
    derive [key] from [(sample index, attempt, job attempt)] so every
    requeue re-rolls its fault plan. *)
module Service : sig
  type action =
    | Stall of float  (** worker sleeps this many seconds, then proceeds *)
    | Abort           (** worker raises {!Injected} before the sample runs *)
    | Crash
        (** worker domain raises {!Crashed} out of its domain body at the
            next sample boundary — the supervisor observes the exception
            through [Domain.join] and requeues the victim job *)
    | Hang of float
        (** worker stops heartbeating for this many seconds — long enough
            (vs the watchdog budget) to be declared hung and replaced *)

  exception Crashed of string
  (** Raised by the service worker honouring a [Crash] plan; escapes the
      worker domain by design. *)

  type config = {
    rate : float;        (** probability a key carries a fault, in [0,1] *)
    abort_frac : float;  (** of fired faults, fraction that abort *)
    crash_frac : float;  (** ... fraction that kill the worker domain *)
    hang_frac : float;   (** ... fraction that freeze the heartbeat *)
    stall_s : float;     (** stall duration, seconds (remainder fraction) *)
    hang_s : float;      (** heartbeat freeze duration, seconds *)
    seed : int;
  }

  val plan : config -> key:int -> action option
  (** Pure function of [(config, key)].
      @raise Invalid_argument on a hand-built config with out-of-range
      fields or kind fractions summing past 1 (same contract as the
      device-level {!val:plan}). *)

  val parse_spec : string -> (config, string) result
  (** CLI syntax [RATE[:KIND[:SEC]]] with KIND one of [stall], [abort]
      (alias [raise]), [mix] (half stalls, half aborts — the default),
      [crash], [hang], or [chaos] (equal quarters of stall / abort /
      crash / hang); [SEC] sets the stall duration for [stall]/[mix]/
      [chaos], the freeze duration for [hang].  [RATE:SECONDS] is
      shorthand for [RATE:stall:SECONDS]. *)

  val spec_to_string : config -> string
end
