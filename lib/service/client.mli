(** Client side of the [vstatd] protocol.

    Connections are one-shot (one request frame, one response frame; a
    [Result] request's response just comes later), so the only stateful
    part is connect retry: a daemon that is still building its pipeline,
    or briefly gone during a restart, is retried with jittered
    exponential backoff.  The jitter comes from
    {!Vstat_util.Rng.substream} keyed by the attempt number — fully
    deterministic for a given [seed], per the repository's determinism
    contract (no OS randomness, no wall-clock reads). *)

val request :
  ?attempts:int ->
  ?seed:int ->
  socket_path:string ->
  Protocol.request ->
  (Protocol.response, string) result
[@@vstat.allow "unused-optional"]
(** One round-trip.  Connect failures ([ENOENT], [ECONNREFUSED]) are
    retried up to [attempts] times (default 8) with
    backoff [50ms * 2^k * (0.5 + U[0,1))]; protocol and socket errors
    after a successful connect are returned as [Error] immediately.
    [?attempts] is granted as a fault seam: daemon_chaos gives a child
    daemon that is still building its pipeline 14 attempts. *)

type await_error =
  | Await_quarantined of { attempts : int; detail : string }
      (** the daemon retired the job after it crashed or hung its worker
          [attempts] times; it will never finish *)
  | Await_failed of string  (** timeout, transport or protocol failure *)

val await_error_to_string : await_error -> string

val await :
  ?seed:int ->
  ?timeout_s:float ->
  socket_path:string ->
  id:string ->
  unit ->
  (Protocol.summary, await_error) result
(** One [Result] round trip: the daemon answers when the job is terminal,
    so this blocks for up to [timeout_s] (default 600 s) waiting for the
    reply.  Returns the summary, {!Await_quarantined} if the daemon
    retired the job, or [Await_failed] on an unknown id, a daemon shutting
    down, the timeout, or a transport failure. *)

val submit :
  ?seed:int ->
  ?client:string ->
  socket_path:string ->
  spec:Protocol.spec ->
  deadline_s:float ->
  unit ->
  (Protocol.response, string) result
(** [request] on a [Submit] message.  [client] (default ["default"]) is
    the fairness identity the daemon round-robins across; it does not
    affect the job's cache identity. *)
