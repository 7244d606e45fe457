(** Shared scaffolding for circuit-level VS-vs-golden Monte Carlo
    comparisons: run the same measurement n times on each statistical
    technology and summarize how close the two distributions are. *)

type pair = {
  label : string;
  golden : float array;
  vs : float array;
  ks : float;                (** two-sample Kolmogorov–Smirnov distance *)
  ks_p : float;
  rel_mean_diff : float;
  rel_std_diff : float;
  overlap : float;           (** KDE overlap in [0,1] *)
}

type controls = {
  retry : Vstat_runtime.Runtime.retry_policy;
      (** the CLIs' [--retry N]; default {!Vstat_runtime.Runtime.no_retry} *)
  inject : Vstat_device.Fault_inject.config option;
      (** the CLIs' [--inject-fault RATE[:KIND]]; default none *)
  checkpoint : Vstat_runtime.Checkpoint.settings option;
      (** the CLIs' [--checkpoint-dir] / [--checkpoint-every] / [--resume] *)
  deadline : (unit -> bool) option;
      (** the CLIs' [--deadline SEC], one
          {!Vstat_runtime.Deadline.watchdog} shared by every run, so a
          batch of experiments degrades together *)
  signals : int list;
      (** trapped for graceful shutdown (the CLIs install
          [SIGINT; SIGTERM]) *)
}
(** Process-wide run controls: every comparison run and every
    experiment that drives {!Vstat_rare} estimators directly reads them,
    so one set of CLI flags governs them all.  Explicit [?retry] /
    [?inject] arguments win. *)

val controls : unit -> controls
val set_controls : controls -> unit

val set_default_checkpoint : Vstat_runtime.Checkpoint.settings option -> unit
(** [set_default_checkpoint c] sets only the [checkpoint] field of
    {!controls}; kept for perfbench's journal workload, which calls it. *)

val collect :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  ?codec:'a Vstat_runtime.Checkpoint.codec ->
  label:string ->
  n:int ->
  tech_of_rng:(Vstat_util.Rng.t -> Vstat_cells.Celltech.t) ->
  rng:Vstat_util.Rng.t ->
  measure:(Vstat_cells.Celltech.t -> 'a) ->
  unit ->
  'a array
(** One Monte Carlo sweep: sample [i] builds a technology from its own RNG
    substream, optionally arms a deterministic injected fault
    ({!Vstat_cells.Celltech.with_fault_injection}, keyed by sample index
    and retry attempt), and measures under ambient solver options
    escalated per attempt ({!Vstat_circuit.Engine.escalate} inside
    {!Vstat_circuit.Engine.with_options}).  Surviving values are returned
    in sample order after {!Vstat_runtime.Runtime.check_budget} enforces
    [max_failure_frac] (default 0.2) with a per-category census. *)

val collect_run :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  ?codec:'a Vstat_runtime.Checkpoint.codec ->
  label:string ->
  n:int ->
  tech_of_rng:(Vstat_util.Rng.t -> Vstat_cells.Celltech.t) ->
  rng:Vstat_util.Rng.t ->
  measure:(Vstat_cells.Celltech.t -> 'a) ->
  unit ->
  'a Vstat_runtime.Runtime.run
(** {!collect} returning the full run record (per-sample cells, attempt
    counts, retry/recovery stats) — what the chaos benches and
    failure-path tests inspect.

    Checkpointing/deadlines: runs go through
    {!Vstat_runtime.Checkpoint.run} under {!controls}, which decides how
    a run ends.  With checkpoint settings and a [codec], completed samples
    are journaled under [label] and a resumed run replays only incomplete
    indices (bit-identical results).  When the deadline expires mid-run
    the returned run is the completed subset ([stats.n] = evaluated
    count); with fewer than 2 completed samples it raises [Failure]
    instead.  A trapped signal raises
    {!Vstat_runtime.Checkpoint.Interrupted}. *)

val run :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  Vstat_core.Pipeline.t ->
  label:string ->
  vdd:float ->
  n:int ->
  seed:int ->
  measure:(Vstat_cells.Celltech.t -> float) ->
  pair
(** [measure tech] must draw fresh devices from [tech] (each call is one
    Monte Carlo sample).  Sampling runs on {!Vstat_runtime.Runtime}
    ([jobs] workers; sample [i] always sees substream [i], so results do
    not depend on the worker count).  Failed samples (convergence or
    measurement failures) are captured, optionally retried under escalated
    solver options, and skipped once dead; if more than [max_failure_frac]
    (default 0.2) of either model's samples fail, the run raises [Failure]
    with per-category failure counts in the message. *)

val run_many :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?retry:Vstat_runtime.Runtime.retry_policy ->
  ?inject:Vstat_device.Fault_inject.config ->
  Vstat_core.Pipeline.t ->
  label:string ->
  vdd:float ->
  n:int ->
  seed:int ->
  measure:(Vstat_cells.Celltech.t -> float list) ->
  pair list
(** Like {!run} for measurements that return several observables per sample
    (e.g. delay and leakage); returns one pair per observable position. *)

val pp_pair : Format.formatter -> pair -> unit
(** One summary block: moments of both distributions, agreement metrics and
    density sparklines. *)
