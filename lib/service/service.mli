(** The [vstatd] daemon: a Unix-domain-socket variation-analysis service.

    One process, [workers + 2] domains.  The accept domain speaks the
    one-shot {!Protocol} (connect, one request frame, one response frame,
    close) and performs {e admission control}.  A [Result] request on a
    job still queued or running is parked and answered when the job
    becomes terminal, without blocking other connections; a pool of worker domains
    executes queued jobs through {!Vstat_runtime.Checkpoint.run}, so each
    job inherits the whole robustness stack: retry ladder, deadline
    watchdog with graceful partial results, and crash-safe journaling.  A
    supervisor domain watches the pool.

    Robustness contract:

    - {b Bounded admission.}  A submit is answered [Accepted] or typed
      [Rejected] ([Bad_request] for invalid specs, [Over_deadline] when
      the EWMA backlog estimate — divided by the pool width — says the
      request cannot finish inside its own deadline, [Queue_full] past
      [queue_max]).  The queue never grows without bound; overload sheds
      load instead of collapsing.
    - {b Fair queueing.}  Queued jobs are served round-robin across the
      client identities given at submit time ({!Fair_queue}): a client
      flooding the queue delays only itself, and per-client FIFO order is
      preserved.
    - {b Supervision.}  Every worker heartbeats at each sample boundary.
      The supervisor detects crashed workers (the domain exited with an
      exception, observed via [Domain.join]) and hung workers (no
      heartbeat past a watchdog budget derived from the EWMA per-sample
      estimate, floored at [hang_timeout_s]).  Victim jobs are requeued
      at the front of their client's line and resume from their
      checkpoint journal — the recovered summary is bit-identical to an
      uninterrupted run.  A job that keeps destroying workers is retired
      after [poison_retries] rounds with a terminal
      {!Protocol.response.Quarantined} answer.  Hung domains cannot be
      killed in OCaml; they are retired in place and their stale results
      discarded by an ownership check.
    - {b Deadlines degrade, not fail.}  A deadline-limited job returns a
      partial {!Protocol.summary}: fewer samples, honestly wider
      confidence interval, [cause = "deadline"].
    - {b Crash recovery.}  Every job journals under its content address
      (the canonical spec string is the {!Vstat_runtime.Journal}
      fingerprint; {!Protocol.job_id} is the file stem).  On restart the
      daemon rescans its state directory: complete journals are re-served
      bit-identically as cache hits, partial journals resume from their
      last flush, and corrupt ones are quarantined with a typed error
      naming the file.  Because every sample is a pure function of
      [(spec, index)], a killed-and-restarted daemon returns the same
      bytes an uninterrupted one would.
    - {b Bounded state.}  [state_max_bytes > 0] caps the journal
      directory: least-recently-finished files are evicted first
      (quarantined [.bad] files before live journals; queued and running
      jobs are never evicted).
    - {b Chaos.}  {!Vstat_device.Fault_inject.Service} faults can be
      armed daemon-wide: stalls and pre-sample aborts exercise the retry
      ladder; worker crashes and heartbeat hangs exercise the supervisor.
      All are value-neutral — an injected daemon still serves
      bit-identical results (or a typed quarantine). *)

type config = {
  socket_path : string;
  state_dir : string;       (** journal cache directory (created if absent) *)
  queue_max : int;          (** admission bound on queued jobs, >= 1 *)
  workers : int;            (** worker-pool width: concurrent jobs, >= 1 *)
  jobs : int;               (** runtime pool width per job; 0 = default *)
  poison_retries : int;
      (** rounds a job may crash/hang its worker before quarantine, >= 1 *)
  hang_timeout_s : float;
      (** watchdog floor: a busy worker silent this long is hung, > 0 *)
  state_max_bytes : int;
      (** LRU byte budget for [state_dir]; 0 = unbounded *)
  pipeline_seed : int;      (** statistical-VS extraction seed *)
  mc_per_geometry : int;    (** extraction MC size (small = fast startup) *)
  inject : Vstat_device.Fault_inject.Service.config option;
      (** service-layer chaos: stalls / aborts / crashes / hangs *)
}

val estimate_wait_s :
  ewma_sample_s:float -> backlog_samples:int -> workers:int -> float
[@@vstat.allow "unused-export"]
(** The admission wait estimate: smoothed per-sample seconds times the
    backlog (in samples), divided by the worker-pool width — [workers]
    jobs drain concurrently, so the expected wait shrinks accordingly.
    Clamps [workers] to at least 1.  Granted as a fault seam: a daemon
    reaches a given EWMA only through wall-clock timing, so test_service
    drives the estimate with chosen values directly. *)

type t

val create : ?pipeline:Vstat_core.Pipeline.t -> config -> t
(** Build the statistical pipeline (the expensive part), bind the listen
    socket, recover journals from [state_dir], and start the worker pool
    and supervisor domains.  [pipeline] skips the build for in-process
    harnesses — the caller must pass one whose seed and extraction size
    match the config, since its seed and extraction size are baked into
    every cache identity.
    @raise Unix.Unix_error if the socket cannot be bound or
    Invalid_argument on a nonsensical config, including a [state_dir]
    that exists but is not a directory. *)

val serve : t -> unit
(** Blocking accept loop.  Returns after {!stop} is called (from a signal
    handler or another domain) or a [Shutdown] request arrives, having
    answered every parked [Result] with [Shutting_down], joined the
    supervisor and every worker (current and retired), closed the socket
    and unlinked the socket path.  Workers drain gracefully: an in-flight
    job stops at the next sample boundary and flushes its journal, so
    nothing is lost. *)

val stop : t -> unit
(** Request shutdown: sets a flag and wakes the accept loop with one byte
    down its self-pipe.  Idempotent and async-signal-safe ([write(2)] is),
    so it may be called from a signal handler. *)

val validate : Protocol.spec -> (unit, string) result
[@@vstat.allow "unused-export"]
(** The admission validity check: sample count, retry depth, vdd and
    fanout ranges.  Granted as a fault seam: test_service feeds it each
    malformed spec directly, without a daemon. *)
