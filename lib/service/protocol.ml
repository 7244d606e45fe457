(* Wire protocol for vstatd: length-prefixed frames, versioned binary
   payloads, total decoders.

   Same little-endian conventions as {!Vstat_runtime.Journal}.  The
   decoding side is written against hostile input: every read is
   bounds-checked (typed [Truncated]), tags are closed ([Bad_tag]),
   numeric fields are range-checked ([Bad_value]), and a message followed
   by junk is refused ([Trailing]) — a strict prefix or extension of a
   valid payload never decodes.  No decoder raises. *)

type job_kind =
  | Inverter_tpd of { fanout : int }
  | Sram_snm of { read : bool }
  | Idsat

type spec = {
  kind : job_kind;
  n : int;
  seed : int;
  vdd : float;
  retry : int;
}

type request =
  | Submit of { spec : spec; deadline_s : float; client : string }
  | Result of { id : string }
  | Health
  | Shutdown

type reject_reason =
  | Queue_full of { queued : int; queue_max : int }
  | Over_deadline of { estimated_wait_s : float; deadline_s : float }
  | Bad_request of { detail : string }

type summary = {
  id : string;
  n : int;
  completed : int;
  failed : int;
  mean : float;
  std : float;
  ci_lo : float;
  ci_hi : float;
  partial : bool;
  cause : string;
  cached : bool;
  wall_s : float;
  retried : int;
  values : float array;
}

type worker_health = {
  wid : int;             (* pool slot *)
  generation : int;      (* bumped every time the slot's worker is replaced *)
  busy : string option;  (* running job id *)
  heartbeat_age_s : float;
  jobs_done : int;
}

type health = {
  uptime_s : float;
  queued : int;
  running : int;
  finished : int;
  rejected : int;
  cache_hits : int;
  served : int;
  requeued : int;          (* victim jobs put back after a crash/hang *)
  quarantined : int;       (* jobs retired after exhausting retries *)
  worker_crashes : int;
  worker_hangs : int;
  state_bytes : int;       (* journal/result state dir footprint *)
  evicted : int;           (* journals removed by the LRU byte budget *)
  workers : worker_health list;
}

type response =
  | Accepted of { id : string; cached : bool }
  | Rejected of { reason : reject_reason }
  | Quarantined of { id : string; attempts : int; detail : string }
  | Job_result of summary
  | Unknown_id of { id : string }
  | Health_report of health
  | Shutting_down

type error =
  | Truncated of { what : string }
  | Oversized of { len : int; max : int }
  | Bad_version of { found : int; expected : int }
  | Bad_tag of { what : string; tag : int }
  | Trailing of { extra : int }
  | Bad_value of { what : string; detail : string }
  | Io of { detail : string }

let error_to_string = function
  | Truncated { what } -> Printf.sprintf "truncated while reading %s" what
  | Oversized { len; max } ->
    Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len max
  | Bad_version { found; expected } ->
    Printf.sprintf "protocol version %d, this build speaks version %d" found
      expected
  | Bad_tag { what; tag } -> Printf.sprintf "unknown %s tag %d" what tag
  | Trailing { extra } ->
    Printf.sprintf "%d trailing bytes after a complete message" extra
  | Bad_value { what; detail } -> Printf.sprintf "bad %s: %s" what detail
  | Io { detail } -> Printf.sprintf "socket error: %s" detail

let version = 3

(* The canonical-spec grammar is versioned independently of the wire
   protocol: a wire bump (new messages, new health fields) must not
   re-address every cached journal, or a rolling upgrade would silently
   discard finished work.  Bump this only when a change alters what a
   sample computes. *)
let canonical_version = 1

(* Big enough for a 100k-sample result frame (8 B/value), small enough
   that a corrupt length prefix cannot provoke a giant allocation. *)
let max_frame = 4 * 1024 * 1024

(* --- canonical spec strings -------------------------------------------- *)

let kind_canonical = function
  | Inverter_tpd { fanout } -> Printf.sprintf "inv:%d" fanout
  | Sram_snm { read } -> if read then "snm:read" else "snm:hold"
  | Idsat -> "idsat"

let spec_canonical ~pipeline spec =
  Printf.sprintf "v%d|kind=%s|n=%d|seed=%d|vdd=%.17g|retry=%d|pipe=%s"
    canonical_version (kind_canonical spec.kind) spec.n spec.seed spec.vdd
    spec.retry pipeline

let field_value fields key =
  let prefix = key ^ "=" in
  let plen = String.length prefix in
  List.find_map
    (fun f ->
      if String.length f >= plen && String.equal (String.sub f 0 plen) prefix
      then Some (String.sub f plen (String.length f - plen))
      else None)
    fields

let spec_of_canonical s =
  let fields = String.split_on_char '|' s in
  let ( let* ) = Result.bind in
  let get key =
    match field_value fields key with
    | Some v -> Ok v
    | None -> Error (Printf.sprintf "canonical spec %S lacks %s" s key)
  in
  let int_of key v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "canonical spec field %s=%S not an int" key v)
  in
  match fields with
  | head :: _ when String.equal head (Printf.sprintf "v%d" canonical_version) ->
    let* kind_s = get "kind" in
    let* kind =
      match String.split_on_char ':' kind_s with
      | [ "inv"; f ] ->
        let* fanout = int_of "kind" f in
        Ok (Inverter_tpd { fanout })
      | [ "snm"; "read" ] -> Ok (Sram_snm { read = true })
      | [ "snm"; "hold" ] -> Ok (Sram_snm { read = false })
      | [ "idsat" ] -> Ok Idsat
      | _ -> Error (Printf.sprintf "unknown canonical kind %S" kind_s)
    in
    let* n = Result.bind (get "n") (int_of "n") in
    let* seed = Result.bind (get "seed") (int_of "seed") in
    let* vdd_s = get "vdd" in
    let* vdd =
      match float_of_string_opt vdd_s with
      | Some v -> Ok v
      | None -> Error (Printf.sprintf "canonical vdd %S not a float" vdd_s)
    in
    let* retry = Result.bind (get "retry") (int_of "retry") in
    Ok { kind; n; seed; vdd; retry }
  | head :: _ ->
    Error (Printf.sprintf "canonical spec version %S not supported" head)
  | [] -> Error "empty canonical spec"

let canonical_pipeline s =
  field_value (String.split_on_char '|' s) "pipe"

let job_id canonical =
  Printf.sprintf "%08x%08x"
    (Vstat_util.Crc32.digest canonical)
    (Vstat_util.Crc32.digest (canonical ^ "#2"))

(* --- encoding ---------------------------------------------------------- *)

let add_u8 b v = Buffer.add_char b (Char.chr (v land 0xFF))
let add_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let add_i64 b v = Buffer.add_int64_le b v
let add_f64 b v = add_i64 b (Int64.bits_of_float v)
let add_bool b v = add_u8 b (if v then 1 else 0)

let add_str b s =
  add_u32 b (String.length s);
  Buffer.add_string b s

let add_spec b spec =
  (match spec.kind with
  | Inverter_tpd { fanout } ->
    add_u8 b 1;
    add_u32 b fanout
  | Sram_snm { read } ->
    add_u8 b 2;
    add_bool b read
  | Idsat -> add_u8 b 3);
  add_u32 b spec.n;
  add_i64 b (Int64.of_int spec.seed);
  add_f64 b spec.vdd;
  add_u32 b spec.retry

let with_header f =
  let b = Buffer.create 64 in
  add_u32 b version;
  f b;
  Buffer.contents b

let encode_request req =
  with_header (fun b ->
      match req with
      | Submit { spec; deadline_s; client } ->
        add_u8 b 1;
        add_spec b spec;
        add_f64 b deadline_s;
        add_str b client
      | Result { id } ->
        add_u8 b 3;
        add_str b id
      | Health -> add_u8 b 4
      | Shutdown -> add_u8 b 5)

let add_summary b s =
  add_str b s.id;
  add_u32 b s.n;
  add_u32 b s.completed;
  add_u32 b s.failed;
  add_f64 b s.mean;
  add_f64 b s.std;
  add_f64 b s.ci_lo;
  add_f64 b s.ci_hi;
  add_bool b s.partial;
  add_str b s.cause;
  add_bool b s.cached;
  add_f64 b s.wall_s;
  add_u32 b s.retried;
  add_u32 b (Array.length s.values);
  Array.iter (fun v -> add_f64 b v) s.values

let encode_response resp =
  with_header (fun b ->
      match resp with
      | Accepted { id; cached } ->
        add_u8 b 1;
        add_str b id;
        add_bool b cached
      | Rejected { reason } -> (
        add_u8 b 2;
        match reason with
        | Queue_full { queued; queue_max } ->
          add_u8 b 1;
          add_u32 b queued;
          add_u32 b queue_max
        | Over_deadline { estimated_wait_s; deadline_s } ->
          add_u8 b 2;
          add_f64 b estimated_wait_s;
          add_f64 b deadline_s
        | Bad_request { detail } ->
          add_u8 b 3;
          add_str b detail)
      | Quarantined { id; attempts; detail } ->
        add_u8 b 3;
        add_str b id;
        add_u32 b attempts;
        add_str b detail
      | Job_result s ->
        add_u8 b 4;
        add_summary b s
      | Unknown_id { id } ->
        add_u8 b 5;
        add_str b id
      | Health_report h ->
        add_u8 b 6;
        add_f64 b h.uptime_s;
        add_u32 b h.queued;
        add_u32 b h.running;
        add_u32 b h.finished;
        add_u32 b h.rejected;
        add_u32 b h.cache_hits;
        add_u32 b h.served;
        add_u32 b h.requeued;
        add_u32 b h.quarantined;
        add_u32 b h.worker_crashes;
        add_u32 b h.worker_hangs;
        add_i64 b (Int64.of_int h.state_bytes);
        add_u32 b h.evicted;
        add_u32 b (List.length h.workers);
        List.iter
          (fun w ->
            add_u32 b w.wid;
            add_u32 b w.generation;
            (match w.busy with
            | None -> add_bool b false
            | Some id ->
              add_bool b true;
              add_str b id);
            add_f64 b w.heartbeat_age_s;
            add_u32 b w.jobs_done)
          h.workers
      | Shutting_down -> add_u8 b 7)

(* --- decoding ---------------------------------------------------------- *)

exception Reject of error

type cursor = { src : string; limit : int; mutable pos : int }

let need cur k what =
  if cur.pos + k > cur.limit then raise (Reject (Truncated { what }))

let get_u8 cur what =
  need cur 1 what;
  let v = Char.code cur.src.[cur.pos] in
  cur.pos <- cur.pos + 1;
  v

let get_u32 cur what =
  need cur 4 what;
  let v = Int32.to_int (String.get_int32_le cur.src cur.pos) land 0xFFFFFFFF in
  cur.pos <- cur.pos + 4;
  v

let get_i64 cur what =
  need cur 8 what;
  let v = String.get_int64_le cur.src cur.pos in
  cur.pos <- cur.pos + 8;
  v

let get_f64 cur what = Int64.float_of_bits (get_i64 cur what)

let get_bool cur what =
  match get_u8 cur what with
  | 0 -> false
  | 1 -> true
  | tag -> raise (Reject (Bad_tag { what; tag }))

let get_str cur what =
  let len = get_u32 cur (what ^ " length") in
  if len > max_frame then raise (Reject (Oversized { len; max = max_frame }));
  need cur len what;
  let s = String.sub cur.src cur.pos len in
  cur.pos <- cur.pos + len;
  s

let positive what v =
  if v < 1 then
    raise
      (Reject (Bad_value { what; detail = Printf.sprintf "%d is not >= 1" v }));
  v

let finite what v =
  if not (Float.is_finite v) then
    raise (Reject (Bad_value { what; detail = "not finite" }));
  v

let get_spec cur =
  let kind =
    match get_u8 cur "job kind" with
    | 1 ->
      let fanout = positive "fanout" (get_u32 cur "fanout") in
      Inverter_tpd { fanout }
    | 2 -> Sram_snm { read = get_bool cur "snm mode" }
    | 3 -> Idsat
    | tag -> raise (Reject (Bad_tag { what = "job kind"; tag }))
  in
  let n = positive "sample count" (get_u32 cur "sample count") in
  let seed = Int64.to_int (get_i64 cur "seed") in
  let vdd = finite "vdd" (get_f64 cur "vdd") in
  let retry = positive "retry depth" (get_u32 cur "retry depth") in
  { kind; n; seed; vdd; retry }

let decode ~what f s =
  let cur = { src = s; limit = String.length s; pos = 0 } in
  match
    let found = get_u32 cur "version" in
    if found <> version then raise (Reject (Bad_version { found; expected = version }));
    let v = f cur in
    if cur.pos <> cur.limit then
      raise (Reject (Trailing { extra = cur.limit - cur.pos }));
    v
  with
  | v -> Ok v
  | exception Reject e -> Error e
  | exception _ -> Error (Bad_value { what; detail = "undecodable payload" })

let decode_request =
  decode ~what:"request" @@ fun cur ->
  match get_u8 cur "request" with
  | 1 ->
    let spec = get_spec cur in
    let deadline_s = finite "deadline" (get_f64 cur "deadline") in
    let client = get_str cur "client id" in
    Submit { spec; deadline_s; client }
  | 3 -> Result { id = get_str cur "job id" }
  | 4 -> Health
  | 5 -> Shutdown
  | tag -> raise (Reject (Bad_tag { what = "request"; tag }))

let get_summary cur =
  let id = get_str cur "summary id" in
  let n = get_u32 cur "summary n" in
  let completed = get_u32 cur "summary completed" in
  let failed = get_u32 cur "summary failed" in
  let mean = get_f64 cur "summary mean" in
  let std = get_f64 cur "summary std" in
  let ci_lo = get_f64 cur "summary ci_lo" in
  let ci_hi = get_f64 cur "summary ci_hi" in
  let partial = get_bool cur "summary partial" in
  let cause = get_str cur "summary cause" in
  let cached = get_bool cur "summary cached" in
  let wall_s = get_f64 cur "summary wall_s" in
  let retried = get_u32 cur "summary retried" in
  let n_values = get_u32 cur "summary value count" in
  if n_values > max_frame / 8 then
    raise (Reject (Oversized { len = n_values * 8; max = max_frame }));
  let values = Array.init n_values (fun _ -> get_f64 cur "summary value") in
  {
    id;
    n;
    completed;
    failed;
    mean;
    std;
    ci_lo;
    ci_hi;
    partial;
    cause;
    cached;
    wall_s;
    retried;
    values;
  }

let decode_response =
  decode ~what:"response" @@ fun cur ->
  match get_u8 cur "response" with
  | 1 ->
    let id = get_str cur "job id" in
    let cached = get_bool cur "cached flag" in
    Accepted { id; cached }
  | 2 ->
    let reason =
      match get_u8 cur "reject reason" with
      | 1 ->
        let queued = get_u32 cur "queued count" in
        let queue_max = get_u32 cur "queue max" in
        Queue_full { queued; queue_max }
      | 2 ->
        let estimated_wait_s = get_f64 cur "estimated wait" in
        let deadline_s = get_f64 cur "deadline" in
        Over_deadline { estimated_wait_s; deadline_s }
      | 3 -> Bad_request { detail = get_str cur "reject detail" }
      | tag -> raise (Reject (Bad_tag { what = "reject reason"; tag }))
    in
    Rejected { reason }
  | 3 ->
    let id = get_str cur "job id" in
    let attempts = get_u32 cur "quarantine attempts" in
    let detail = get_str cur "quarantine detail" in
    Quarantined { id; attempts; detail }
  | 4 -> Job_result (get_summary cur)
  | 5 -> Unknown_id { id = get_str cur "job id" }
  | 6 ->
    let uptime_s = get_f64 cur "uptime" in
    let queued = get_u32 cur "queued count" in
    let running = get_u32 cur "running count" in
    let finished = get_u32 cur "finished count" in
    let rejected = get_u32 cur "rejected count" in
    let cache_hits = get_u32 cur "cache hit count" in
    let served = get_u32 cur "served count" in
    let requeued = get_u32 cur "requeued count" in
    let quarantined = get_u32 cur "quarantined count" in
    let worker_crashes = get_u32 cur "worker crash count" in
    let worker_hangs = get_u32 cur "worker hang count" in
    let state_bytes = Int64.to_int (get_i64 cur "state bytes") in
    let evicted = get_u32 cur "evicted count" in
    let n_workers = get_u32 cur "worker count" in
    (* A worker_health entry is at least 22 bytes on the wire; anything
       past that bound is a corrupt count, not a plausible pool. *)
    if n_workers > max_frame / 22 then
      raise (Reject (Oversized { len = n_workers * 22; max = max_frame }));
    let workers =
      List.init n_workers (fun _ ->
          let wid = get_u32 cur "worker id" in
          let generation = get_u32 cur "worker generation" in
          let busy =
            if get_bool cur "worker busy flag" then
              Some (get_str cur "worker busy id")
            else None
          in
          let heartbeat_age_s = get_f64 cur "worker heartbeat age" in
          let jobs_done = get_u32 cur "worker jobs done" in
          { wid; generation; busy; heartbeat_age_s; jobs_done })
    in
    Health_report
      {
        uptime_s;
        queued;
        running;
        finished;
        rejected;
        cache_hits;
        served;
        requeued;
        quarantined;
        worker_crashes;
        worker_hangs;
        state_bytes;
        evicted;
        workers;
      }
  | 7 -> Shutting_down
  | tag -> raise (Reject (Bad_tag { what = "response"; tag }))

(* --- framing ----------------------------------------------------------- *)

let rec write_all fd s pos len =
  if len > 0 then begin
    let written =
      try Unix.write_substring fd s pos len
      with Unix.Unix_error (Unix.EINTR, _, _) -> 0
    in
    write_all fd s (pos + written) (len - written)
  end

let write_frame fd payload =
  let len = String.length payload in
  if len > max_frame then Error (Oversized { len; max = max_frame })
  else begin
    let header = Bytes.create 4 in
    Bytes.set_int32_le header 0 (Int32.of_int len);
    match
      write_all fd (Bytes.unsafe_to_string header) 0 4;
      write_all fd payload 0 len
    with
    | () -> Ok ()
    | exception Unix.Unix_error (e, _, _) ->
      Error (Io { detail = Unix.error_message e })
  end

let read_exact fd n what =
  let buf = Bytes.create n in
  let rec loop pos =
    if pos >= n then Ok (Bytes.unsafe_to_string buf)
    else begin
      match Unix.read fd buf pos (n - pos) with
      | 0 -> Error (Truncated { what })
      | k -> loop (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (* what SO_RCVTIMEO expiry looks like *)
        Error (Io { detail = "receive timed out" })
      | exception Unix.Unix_error (e, _, _) ->
        Error (Io { detail = Unix.error_message e })
    end
  in
  loop 0

let read_frame fd =
  match read_exact fd 4 "frame length" with
  | Error _ as e -> e
  | Ok header ->
    let len = Int32.to_int (String.get_int32_le header 0) land 0xFFFFFFFF in
    if len > max_frame then Error (Oversized { len; max = max_frame })
    else read_exact fd len "frame payload"
