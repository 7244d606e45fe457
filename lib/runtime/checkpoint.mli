(** Crash-safe checkpoint/resume for Monte Carlo runs.

    This module wraps {!Runtime.map_subset_attempt_samples} with a durable
    run journal ({!Journal}): completed sample values are recorded as they
    land, a snapshot is atomically flushed to disk every [every] samples
    and at run end, and a later invocation with [resume:true] reloads the
    snapshot, verifies the run identity (label, fingerprint+codec, sample
    count, RNG base seed, retry depth) and replays {e only} the incomplete
    indices on their original substreams.  Because every sample is a pure
    function of its index and substream, an interrupted-and-resumed run is
    bit-identical to an uninterrupted one, at any [jobs] count — and
    resuming under a different worker count is equally safe.

    Graceful degradation: a deadline watchdog ({!Deadline.watchdog}) or a
    caught signal drains the pool at the next sample boundary, flushes a
    final snapshot, and returns a partial {!outcome} whose [cause] says
    why.  Failed samples are never persisted; they replay (and re-fail
    identically) on resume, so the failure census stays honest. *)

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

val opaque_codec : string -> 'a codec
(** A non-persistable codec: use it to run {!run} for its deadline/signal
    machinery only (no [settings]).  Its [encode]/[decode] raise
    [Invalid_argument] — passing it together with [settings] is a
    programming error. *)

type settings = {
  dir : string;    (** snapshot directory (created on first flush) *)
  every : int;     (** flush after this many new samples; 0 = only at end *)
  resume : bool;   (** load and verify an existing snapshot first *)
}

val settings : ?every:int -> ?resume:bool -> string -> settings
(** [settings dir] with [every] defaulting to [100] and [resume] to
    [false].  @raise Invalid_argument when [every < 0]. *)

val snapshot_path : settings -> string -> string
(** [snapshot_path s label] — [<dir>/<sanitized label>.ckpt]. *)

type cause =
  | Finished          (** every sample evaluated *)
  | Deadline_reached  (** the [deadline] watchdog fired *)
  | Signalled of int
      (** one of [signals] arrived (OCaml's encoding, e.g. [Sys.sigterm]) *)

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
  snapshot : string option;  (** snapshot path, when checkpointing is on *)
}

exception
  Interrupted of {
    label : string;
    signal : int;
    completed : int;
    n : int;
    snapshot : string option;
  }
(** Raised by higher layers (not by {!run}) to unwind to the CLI after a
    signal-triggered partial run; registered with [Printexc]. *)

val is_complete : 'a outcome -> bool
val values : 'a outcome -> 'a array
(** Successful samples in index order. *)

val failures : 'a outcome -> Runtime.failure list

val completed_run : 'a outcome -> 'a Runtime.run
(** The evaluated cells compacted into a plain run ([stats.n] = evaluated
    count), so budget checks and downstream statistics treat a partial
    outcome exactly like a smaller run. *)

val run :
  ?jobs:int ->
  ?on_progress:(completed:int -> n:int -> unit) ->
  ?retry:Runtime.retry_policy ->
  ?deadline:(unit -> bool) ->
  ?settings:settings ->
  ?signals:int list ->
  ?fingerprint:string ->
  codec:'a codec ->
  label:string ->
  rng:Vstat_util.Rng.t ->
  n:int ->
  f:(attempt:int -> index:int -> Vstat_util.Rng.t -> 'a) ->
  unit ->
  'a outcome
(** Checkpointed analogue of {!Runtime.map_rng_samples}, with the retry
    ladder of {!Runtime.map_subset_attempt_samples}: derives the base seed
    from [rng] with the same single draw and hands sample [index] the
    substream [Rng.substream ~seed:base ~index] on every attempt, so the
    same starting RNG state produces bit-identical values with or without
    checkpointing.  [deadline] is polled at sample boundaries (build one
    with {!Deadline.watchdog}); [signals] are trapped for the duration of
    the run (handlers restored on exit) and set a flag the pool polls —
    no work happens in the handler itself.  Without [settings] nothing is
    persisted and only the deadline/signal machinery is active.

    @raise Journal.Rejected when [settings.resume] finds a snapshot that
    is corrupt, version-skewed, or belongs to a different run.
    @raise Invalid_argument when [n < 0]. *)
