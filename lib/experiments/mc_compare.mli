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

val set_inject : Vstat_device.Fault_inject.config option -> unit
(** The CLIs' [--inject-fault RATE[:KIND]], armed in every later
    {!collect_run} (default none).  It lives here, not in
    {!Vstat_runtime.Checkpoint.controls}, because injection is a
    device-level setting. *)

val set_default_checkpoint : Vstat_runtime.Checkpoint.settings option -> unit
(** [set_default_checkpoint c] sets only the [checkpoint] field of
    {!Vstat_runtime.Checkpoint.controls}; kept for perfbench's journal
    workload, which calls it. *)

val collect_run :
  ?jobs:int ->
  ?codec:'a Vstat_runtime.Checkpoint.codec ->
  label:string ->
  n:int ->
  tech_of_rng:(Vstat_util.Rng.t -> Vstat_cells.Celltech.t) ->
  rng:Vstat_util.Rng.t ->
  measure:(Vstat_cells.Celltech.t -> 'a) ->
  unit ->
  'a Vstat_runtime.Runtime.run
(** One Monte Carlo sweep: sample [i] builds a technology from its own RNG
    substream, optionally arms a deterministic injected fault
    ({!set_inject}; {!Vstat_cells.Celltech.with_fault_injection}, keyed by
    sample index and retry attempt), and measures under ambient solver
    options escalated per attempt ({!Vstat_circuit.Engine.escalate} inside
    {!Vstat_circuit.Engine.with_options}).

    The sweep is one {!Vstat_runtime.Checkpoint.collect} under the
    process-wide run controls, which decides how it ends: the returned run
    is the completed subset ([stats.n] = evaluated count) after the 20 %
    failure budget and the 2-survivor minimum.
    With a checkpoint directory and a [codec], completed samples are
    journaled under [label] and a resumed run replays only incomplete
    indices (bit-identical results). *)

val collect_indexed :
  codec:'a Vstat_runtime.Checkpoint.codec ->
  label:string ->
  n:int ->
  tech_of_sample:(index:int -> Vstat_util.Rng.t -> Vstat_cells.Celltech.t) ->
  rng:Vstat_util.Rng.t ->
  measure:(Vstat_cells.Celltech.t -> 'a) ->
  unit ->
  'a Vstat_runtime.Runtime.run
(** {!collect_run} on the default worker count, where sample [i]'s
    technology may also depend on [i] (in {!Exp_inter_die}, sample [i]
    sits on die [i / per_die]). *)

val run :
  Vstat_core.Pipeline.t ->
  label:string ->
  vdd:float ->
  n:int ->
  seed:int ->
  measure:(Vstat_cells.Celltech.t -> float) ->
  pair
(** [measure tech] must draw fresh devices from [tech] (each call is one
    Monte Carlo sample).  Each model is one {!collect_run} (sample [i]
    always sees substream [i], so results do not depend on the worker
    count).  Failed samples (convergence or measurement failures) are
    captured, retried under escalated solver options when the run
    controls ask, and skipped once dead; if more than
    20 % of either model's samples fail, the run raises [Failure] with
    per-category failure counts in the message. *)

val run_many :
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
