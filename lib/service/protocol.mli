(** Wire protocol of the [vstatd] variation-analysis service.

    Frames are length-prefixed: a 4-byte little-endian payload length
    followed by the payload, capped at {!max_frame} bytes so a hostile or
    confused peer cannot make the daemon allocate unboundedly.  Payloads
    are versioned binary messages in the same little-endian style as
    {!Vstat_runtime.Journal}.

    The codec never raises on malformed input: every decoder returns a
    typed {!error} for truncated frames, oversized frames, unknown tags,
    trailing bytes and out-of-range fields.  Encoding a value produced by
    this module always round-trips ([decode (encode m) = Ok m]). *)

(** {1 Job specifications} *)

type job_kind =
  | Inverter_tpd of { fanout : int }
      (** FO-[fanout] inverter propagation delay, statistical VS tech *)
  | Sram_snm of { read : bool }
      (** 6T SRAM static noise margin, READ ([true]) or HOLD mode *)
  | Idsat
      (** NMOS on-current draw — the cheap load-generator job *)

type spec = {
  kind : job_kind;
  n : int;       (** Monte Carlo samples, >= 1 *)
  seed : int;    (** RNG seed; part of the job identity *)
  vdd : float;   (** supply voltage, V *)
  retry : int;   (** retry-ladder depth per sample, >= 1 *)
}

val spec_canonical : pipeline:string -> spec -> string
(** Canonical run-identity string: every field that changes sample values
    (job parameters, seed, and the daemon's [pipeline] signature) rendered
    with [%.17g] floats.  This is both the {!Vstat_runtime.Checkpoint}
    fingerprint and the input to {!job_id} — two requests with equal
    canonical strings are the same job and may share cached results.
    Per-request deadlines are deliberately excluded: a deadline changes
    how many samples complete, never what any sample computes. *)

val spec_of_canonical : string -> (spec, string) result
(** Parse a {!spec_canonical} string back (the daemon recovers interrupted
    jobs from journal fingerprints at startup).  The [pipeline] field is
    validated by the caller against its own pipeline signature. *)

val canonical_pipeline : string -> string option
(** The [pipeline] signature recorded in a canonical string, if any. *)

val job_id : string -> string
(** 16-hex-digit content address of a canonical spec string (two CRC-32
    lanes).  Collisions are caught downstream by the journal's
    full-fingerprint identity check. *)

(** {1 Messages} *)

type request =
  | Submit of { spec : spec; deadline_s : float; client : string }
      (** [deadline_s <= 0.] means no deadline.  [client] is an opaque
          fairness identity: the daemon serves queued jobs round-robin
          across client ids, so one flooding client delays only itself.
          It is not part of the job identity — two clients submitting the
          same spec share one cached result. *)
  | Result of { id : string }
      (** Wait for the job: the daemon holds the connection open while the
          job is queued or running and answers once it is terminal, with
          [Job_result], [Quarantined], [Unknown_id], or [Shutting_down] if
          the daemon stops first. *)
  | Health
  | Shutdown  (** orderly daemon shutdown (tests, CI) *)

type reject_reason =
  | Queue_full of { queued : int; queue_max : int }
  | Over_deadline of { estimated_wait_s : float; deadline_s : float }
  | Bad_request of { detail : string }

type summary = {
  id : string;
  n : int;             (** samples requested *)
  completed : int;     (** samples evaluated (= [n] unless degraded) *)
  failed : int;        (** samples dead after the retry ladder *)
  mean : float;
  std : float;
  ci_lo : float;       (** 95 % CI on the mean — honestly wider when partial *)
  ci_hi : float;
  partial : bool;      (** degraded: deadline or shutdown stopped the run *)
  cause : string;      (** ["finished"] | ["deadline"] | ["shutdown"] *)
  cached : bool;       (** served from the journal result cache *)
  wall_s : float;      (** compute wall time (0 for pure cache hits) *)
  retried : int;       (** samples that needed more than one attempt *)
  values : float array;(** completed sample values, index order — the
                           bit-identity contract is checked on these *)
}

type worker_health = {
  wid : int;             (** pool slot index, stable across replacements *)
  generation : int;      (** bumped each time the slot's domain is replaced *)
  busy : string option;  (** id of the job the worker is running, if any *)
  heartbeat_age_s : float;
      (** seconds since the worker last heartbeat; idle workers block
          until work arrives, so for an idle worker this is its idle time *)
  jobs_done : int;       (** jobs this slot has completed (all generations) *)
}

type health = {
  uptime_s : float;
  queued : int;
  running : int;
  finished : int;
  rejected : int;
  cache_hits : int;
  served : int;
  requeued : int;        (** victim jobs requeued after a crash or hang *)
  quarantined : int;     (** jobs retired after exhausting the retry budget *)
  worker_crashes : int;  (** worker domains that died with an exception *)
  worker_hangs : int;    (** workers replaced by the heartbeat watchdog *)
  state_bytes : int;     (** journal/result state-dir footprint, bytes *)
  evicted : int;         (** journals evicted by the LRU byte budget *)
  workers : worker_health list;  (** one entry per pool slot *)
}

type response =
  | Accepted of { id : string; cached : bool }
  | Rejected of { reason : reject_reason }
  | Quarantined of { id : string; attempts : int; detail : string }
      (** terminal: the job took down (or hung) a worker [attempts] times
          and will not be retried again; [detail] records the last
          failure. *)
  | Job_result of summary
  | Unknown_id of { id : string }
  | Health_report of health
  | Shutting_down

(** {1 Codec} *)

type error =
  | Truncated of { what : string }
      (** payload ended mid-field while reading [what] *)
  | Oversized of { len : int; max : int }
      (** frame length prefix exceeds {!max_frame} *)
  | Bad_version of { found : int; expected : int }
  | Bad_tag of { what : string; tag : int }
  | Trailing of { extra : int }
      (** well-formed message followed by [extra] junk bytes *)
  | Bad_value of { what : string; detail : string }
  | Io of { detail : string }
      (** socket-level failure while reading or writing a frame *)

val error_to_string : error -> string

val version : int
(** Wire protocol version; a mismatch yields [Bad_version]. *)

val canonical_version : int
(** Version of the {!spec_canonical} grammar, deliberately decoupled from
    the wire {!version}: wire changes (new messages, richer health) must
    not re-address cached journals.  Bump only when a change alters what a
    sample computes. *)

val max_frame : int

val encode_request : request -> string
val decode_request : string -> (request, error) result
val encode_response : response -> string
val decode_response : string -> (response, error) result

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> (unit, error) result
(** Length-prefix and send one payload.  [Error Oversized] if the payload
    exceeds {!max_frame}; socket errors come back as [Error (Io _)]. *)

val read_frame : Unix.file_descr -> (string, error) result
(** Read one length-prefixed payload.  Typed errors for EOF mid-frame,
    oversized prefixes and socket failures; never raises. *)
