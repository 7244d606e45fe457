(** Crash-safe checkpoint/resume for Monte Carlo runs.

    This module wraps {!Runtime.map_subset_attempt_samples} with a durable
    run journal ({!Journal}): completed sample values are recorded as they
    land, a snapshot is atomically flushed to disk on a geometric schedule
    (see {!settings}) and at run end, and a later invocation with
    [resume:true] reloads the snapshot, verifies the run identity (label,
    fingerprint+codec, sample count, RNG base seed, retry depth) and
    replays {e only} the incomplete indices on their original substreams.
    Because every sample is a pure function of its index and substream, an
    interrupted-and-resumed run is bit-identical to an uninterrupted one,
    at any [jobs] count — and resuming under a different worker count is
    equally safe.

    Graceful degradation: a deadline watchdog ({!Deadline.watchdog}) or a
    caught signal drains the pool at the next sample boundary and flushes
    a final snapshot.  A deadline then returns a partial {!outcome}; a
    signal raises {!Interrupted}.  Failed samples are never persisted;
    they replay (and re-fail identically) on resume, so the failure census
    stays honest.

    Two entry points: {!run} takes every control as an explicit argument
    (the daemon, tests and benches), and {!collect} reads the process-wide
    {!controls} the CLIs set and decides how the run ended — every batch
    Monte Carlo sweep in [lib] ends there. *)

(** How to persist one sample value.  [encode]/[decode] must round-trip
    bit-exactly. *)
type 'a codec = {
  codec_name : string;  (** part of the run identity; decode refuses others *)
  encode : 'a -> string;
  decode : string -> 'a;  (** may raise [Failure] on malformed payloads *)
}

val float_codec : float codec
val float_array_codec : float array codec
val float_list_codec : float list codec
val float_pair_codec : (float * float) codec
(** Two floats per sample — the importance-sampling journal entry
    (metric, log likelihood-ratio weight), so a resumed rare-event run
    restores both the observable and its reweighting factor bit-exactly. *)

val float_triple_codec : (float * float * float) codec

type settings = {
  dir : string;    (** snapshot directory (created on first flush) *)
  every : int;
      (** the floor of the flush interval; 0 = only at end.  A flush comes
          when the samples recorded since the last one reach
          [max every (held / 8)], [held] counting restored plus recorded
          samples: every [every] samples up to [8 * every], then a
          geometric schedule, O(log n) flushes for n samples.  A crash
          (no final flush) loses fewer than [max every (held / 8)]
          samples; resuming recomputes them bit-identically. *)
  resume : bool;   (** load and verify an existing snapshot first *)
}

val settings : ?every:int -> ?resume:bool -> string -> settings
(** [settings dir] with [every] defaulting to [100] and [resume] to
    [false].  @raise Invalid_argument when [every < 0]. *)

val snapshot_path : settings -> string -> string
(** [snapshot_path s label] — [<dir>/<sanitized label>.ckpt]. *)

val caller_fingerprint : Journal.identity -> string
(** The [fingerprint] the caller passed to {!run}, recovered from a
    journaled identity ({!run} appends the codec name to it). *)

type cause =
  | Finished          (** every sample evaluated *)
  | Deadline_reached  (** the [deadline] watchdog fired *)

val os_signal_number : int -> int
(** Map OCaml's negative portable signal encodings ([Sys.sigterm] = -11)
    to the POSIX numbers shells expect (15), for [exit (128 + signal)]
    and human-readable reports.  Non-negative inputs pass through;
    unrecognized encodings map to 0. *)

type 'a outcome = {
  label : string;
  n : int;
  cells : ('a, Runtime.failure) result option array;
      (** index-stable; [None] = not evaluated (stopped early) *)
  attempts : int array;  (** per sample; 0 = not evaluated *)
  stats : Runtime.stats; (** this invocation's pool statistics *)
  cause : cause;
  restored : int;   (** samples prefilled from the snapshot *)
  completed : int;  (** evaluated samples overall (restored + this run) *)
  snapshot : string option;  (** snapshot path, when the run is journaled *)
}

exception
  Interrupted of {
    label : string;
    signal : int;
    completed : int;
    n : int;
    snapshot : string option;
  }
(** Raised by {!run} when one of its [signals] stopped the run, after the
    final snapshot flush and after the previous handlers are restored.
    [signal] is OCaml's encoding (e.g. [Sys.sigterm]; see
    {!os_signal_number}); [snapshot] is the flushed file when the run was
    journaled.  Registered with [Printexc]. *)

val is_complete : 'a outcome -> bool
val values : 'a outcome -> 'a array
(** Successful samples in index order. *)

val failures : 'a outcome -> Runtime.failure list

val run :
  ?jobs:int ->
  ?on_progress:(completed:int -> n:int -> unit) ->
  ?retry:int ->
  ?deadline:(unit -> bool) ->
  ?settings:settings ->
  ?signals:int list ->
  ?fingerprint:string ->
  ?codec:'a codec ->
  label:string ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  f:(attempt:int -> index:int -> Vstat_util.Rng.t -> 'a) ->
  unit ->
  'a outcome
[@@vstat.allow "unused-optional"]
(** Checkpointed analogue of {!Runtime.map_rng_samples}, with the retry
    ladder of {!Runtime.map_subset_attempt_samples}: derives the base seed
    from [rng] with the same single draw and hands sample [index] the
    substream [Rng.substream ~seed:base ~index] on every attempt, so the
    same starting RNG state produces bit-identical values with or without
    checkpointing.  [deadline] is polled at sample boundaries (build one
    with {!Deadline.watchdog}); [signals] are trapped for the duration of
    the run (handlers restored on exit) and set a flag the pool polls —
    no work happens in the handler itself.

    The run is journaled only when it has both [settings] and a [codec];
    given [settings] but no [codec] it logs one warning per process and
    runs unjournaled.  A deadline returns a partial outcome (after one
    warning); a trapped signal raises {!Interrupted}.  Each run logs one
    Info line: label, n, jobs, wall time, rate and failed samples.

    [?on_progress] is granted as a fault seam: resume_chaos watches the
    completed count through it to kill the run mid-flight.

    A failed flush never fails a sample: it stops the pool at the next
    sample boundary, and [run] raises it once the pool has drained.

    @raise Interrupted when one of [signals] stopped the run.
    @raise Journal.Rejected when [settings.resume] finds a snapshot that
    is corrupt, version-skewed, or belongs to a different run, and
    [Journal.Rejected (Io _)] when a flush cannot write the snapshot.
    @raise Invalid_argument when [n < 0] or [retry < 1]. *)

(** {1 Batch sweeps} *)

type controls = {
  retry : int;  (** attempts per sample, >= 1 *)
  checkpoint : settings option;
  deadline : (unit -> bool) option;  (** one watchdog for the invocation *)
  signals : int list;
}
(** Process-wide run controls, read by every {!collect}: the CLIs' [--retry],
    [--checkpoint-dir]/[--resume], [--deadline] and trapped
    [SIGINT]/[SIGTERM].  Initially none of them. *)

val controls : unit -> controls
val set_controls : controls -> unit

exception
  Too_few_samples of { label : string; completed : int; needed : int; n : int }
(** Raised by {!collect} when only [completed] of [n] samples succeeded
    and the caller needs [needed] (typically a deadline that fired before
    the sweep got going).  Registered with [Printexc]. *)

val collect :
  ?jobs:int ->
  ?max_failure_frac:float ->
  ?min_ok:int ->
  ?fingerprint:string ->
  ?codec:'a codec ->
  label:string ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  f:(attempt:int -> index:int -> Vstat_util.Rng.t -> 'a) ->
  unit ->
  'a Runtime.run
(** One batch sweep: {!run} under {!controls}, then the one decision on
    how it ended.  The evaluated cells are compacted into a plain run
    ([stats.n] = evaluated count, so [Array.length cells < n] exactly
    when the deadline stopped it), {!Runtime.check_budget} enforces
    [max_failure_frac] (default 0.2), and fewer than [min_ok] (default 2)
    successes raise {!Too_few_samples}.  A trapped signal raises
    {!Interrupted}, a mismatched resume {!Journal.Rejected}. *)
