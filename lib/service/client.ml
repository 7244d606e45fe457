(* One-shot protocol client with deterministic, jittered connect retry. *)

module P = Protocol

let default_attempts = 8
let backoff_base_s = 0.05

(* Jitter keyed by (seed, attempt) through Rng.substream: reproducible
   under the determinism lint, yet decorrelated across attempts — and
   across clients, when each passes its own seed. *)
let backoff_s ~seed ~attempt =
  let rng = Vstat_util.Rng.substream ~seed ~index:attempt in
  backoff_base_s
  *. Float.of_int (1 lsl Int.min attempt 6)
  *. (0.5 +. Vstat_util.Rng.float rng)

let connect ?(attempts = default_attempts) ?(seed = 0x7a11) ~socket_path () =
  let rec go attempt =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket_path) with
    | () -> Ok fd
    | exception
        Unix.Unix_error
          ((Unix.ENOENT | Unix.ECONNREFUSED | Unix.EAGAIN) as e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if attempt + 1 >= attempts then
        Error
          (Printf.sprintf "cannot connect to %s after %d attempts: %s"
             socket_path attempts (Unix.error_message e))
      else begin
        Unix.sleepf (backoff_s ~seed ~attempt);
        go (attempt + 1)
      end
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error
        (Printf.sprintf "cannot connect to %s: %s" socket_path
           (Unix.error_message e))
  in
  go 0

(* One request on a fresh connection; each socket send or receive gives
   up after [timeout_s]. *)
let round_trip ?attempts ?seed ~timeout_s ~socket_path req =
  match connect ?attempts ?seed ~socket_path () with
  | Error _ as e -> e
  | Ok fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        Unix.setsockopt_float fd Unix.SO_RCVTIMEO timeout_s;
        Unix.setsockopt_float fd Unix.SO_SNDTIMEO timeout_s;
        match P.write_frame fd (P.encode_request req) with
        | Error e -> Error (P.error_to_string e)
        | Ok () -> (
          match P.read_frame fd with
          | Error e -> Error (P.error_to_string e)
          | Ok payload -> (
            match P.decode_response payload with
            | Error e -> Error (P.error_to_string e)
            | Ok resp -> Ok resp)))

let request ?attempts ?seed ~socket_path req =
  round_trip ?attempts ?seed ~timeout_s:30.0 ~socket_path req

let submit ?seed ?(client = "default") ~socket_path ~spec ~deadline_s () =
  request ?seed ~socket_path (P.Submit { spec; deadline_s; client })

type await_error =
  | Await_quarantined of { attempts : int; detail : string }
  | Await_failed of string

let await_error_to_string = function
  | Await_quarantined { attempts; detail } ->
    Printf.sprintf "quarantined after %d attempt(s): %s" attempts detail
  | Await_failed msg -> msg

let await ?seed ?(timeout_s = 600.0) ~socket_path ~id () =
  let fail fmt = Printf.ksprintf (fun m -> Error (Await_failed m)) fmt in
  match round_trip ?seed ~timeout_s ~socket_path (P.Result { id }) with
  | Error e -> fail "job %s: %s" id e
  | Ok (P.Job_result summary) -> Ok summary
  | Ok (P.Quarantined { attempts; detail; _ }) ->
    Error (Await_quarantined { attempts; detail })
  | Ok (P.Unknown_id _) -> fail "job %s: unknown to the daemon" id
  | Ok P.Shutting_down -> fail "daemon is shutting down"
  | Ok _ -> fail "job %s: unexpected result response" id
