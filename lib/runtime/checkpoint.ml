(* Crash-safe checkpoint/resume driver over {!Runtime.map_subset_attempt_samples}.

   The run is addressed by sample index throughout: a sample's value is a
   pure function of (index, substream, retry ladder), so persisting the
   completed successes and replaying only the incomplete indices on their
   original substreams reproduces an uninterrupted run bit-for-bit, at any
   worker count.  Failed samples are deliberately *not* persisted — they
   re-fail identically on replay (same index, same substream, same
   ladder), which keeps the snapshot format small and the failure census
   honest after a resume.

   Concurrency: workers record completed samples under one mutex; when
   [every] new samples have accumulated, the recording worker itself
   serializes the full journal and writes it through
   {!Vstat_util.Atomic_io} while holding the mutex (other workers keep
   computing and only block if they finish a sample during the flush).
   Deadlines and signals set a flag the pool polls at sample boundaries;
   the final flush then runs on the caller, so no async-signal-unsafe
   work ever happens inside a signal handler.  A trapped signal ends the
   run by raising [Interrupted] once that flush is done. *)

module Rng = Vstat_util.Rng

let log_src =
  Logs.Src.create "vstat.checkpoint" ~doc:"Monte Carlo checkpoint/resume"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* --- codecs ------------------------------------------------------------ *)

type 'a codec = {
  codec_name : string;
  encode : 'a -> string;
  decode : string -> 'a;
}

let encode_floats vs =
  let b = Bytes.create (8 * Array.length vs) in
  Array.iteri (fun i v -> Bytes.set_int64_le b (8 * i) (Int64.bits_of_float v)) vs;
  Bytes.unsafe_to_string b

let decode_floats ~what s =
  let len = String.length s in
  if len mod 8 <> 0 then
    failwith (Printf.sprintf "%s payload: %d bytes is not a multiple of 8" what len);
  Array.init (len / 8) (fun i -> Int64.float_of_bits (String.get_int64_le s (8 * i)))

let float_codec =
  {
    codec_name = "float";
    encode = (fun v -> encode_floats [| v |]);
    decode =
      (fun s ->
        match decode_floats ~what:"float" s with
        | [| v |] -> v
        | vs ->
          failwith
            (Printf.sprintf "float payload: expected 1 value, got %d"
               (Array.length vs)));
  }

let float_array_codec =
  {
    codec_name = "float-array";
    encode = encode_floats;
    decode = decode_floats ~what:"float-array";
  }

let float_list_codec =
  {
    codec_name = "float-list";
    encode = (fun l -> encode_floats (Array.of_list l));
    decode = (fun s -> Array.to_list (decode_floats ~what:"float-list" s));
  }

let float_pair_codec =
  {
    codec_name = "float-pair";
    encode = (fun (a, b) -> encode_floats [| a; b |]);
    decode =
      (fun s ->
        match decode_floats ~what:"float-pair" s with
        | [| a; b |] -> (a, b)
        | vs ->
          failwith
            (Printf.sprintf "float-pair payload: expected 2 values, got %d"
               (Array.length vs)));
  }

let float_triple_codec =
  {
    codec_name = "float-triple";
    encode = (fun (a, b, c) -> encode_floats [| a; b; c |]);
    decode =
      (fun s ->
        match decode_floats ~what:"float-triple" s with
        | [| a; b; c |] -> (a, b, c)
        | vs ->
          failwith
            (Printf.sprintf "float-triple payload: expected 3 values, got %d"
               (Array.length vs)));
  }

(* --- settings ---------------------------------------------------------- *)

type settings = { dir : string; every : int; resume : bool }

let settings ?(every = 100) ?(resume = false) dir =
  if every < 0 then
    invalid_arg
      (Printf.sprintf "Checkpoint.settings: every must be >= 0 (got %d)" every);
  { dir; every; resume }

let sanitize_label label =
  String.map
    (function
      | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' | '_') as c -> c
      | _ -> '_')
    label

let snapshot_path s label = Filename.concat s.dir (sanitize_label label ^ ".ckpt")

(* --- outcome ----------------------------------------------------------- *)

type cause = Finished | Deadline_reached

(* OCaml's Sys.sig* constants are negative portable encodings; shells and
   exit statuses speak the POSIX numbers.  Unknown encodings map to 0
   (exit 128 — "killed by an unidentified signal"). *)
let os_signal_number s =
  if s >= 0 then s
  else if s = Sys.sighup then 1
  else if s = Sys.sigint then 2
  else if s = Sys.sigquit then 3
  else if s = Sys.sigkill then 9
  else if s = Sys.sigusr1 then 10
  else if s = Sys.sigusr2 then 12
  else if s = Sys.sigpipe then 13
  else if s = Sys.sigalrm then 14
  else if s = Sys.sigterm then 15
  else 0

type 'a outcome = {
  label : string;
  n : int;
  cells : ('a, Runtime.failure) result option array;
  attempts : int array;
  stats : Runtime.stats;
  cause : cause;
  restored : int;
  completed : int;
  snapshot : string option;
}

exception
  Interrupted of {
    label : string;
    signal : int;
    completed : int;
    n : int;
    snapshot : string option;
  }

let () =
  Printexc.register_printer (function
    | Interrupted { label; signal; completed; n; snapshot } ->
      Some
        (Printf.sprintf
           "Checkpoint.Interrupted(%s: signal %d after %d/%d samples%s)"
           label (os_signal_number signal) completed n
           (match snapshot with
           | Some p -> ", snapshot " ^ p
           | None -> ", no snapshot"))
    | _ -> None)

let is_complete o = o.completed = o.n

let values o =
  Array.of_list
    (Array.fold_right
       (fun cell acc ->
         match cell with Some (Ok v) -> v :: acc | _ -> acc)
       o.cells [])

let failures o =
  Array.fold_right
    (fun cell acc -> match cell with Some (Error f) -> f :: acc | _ -> acc)
    o.cells []

(* --- the driver -------------------------------------------------------- *)

type slot = { s_attempts : int; s_payload : string }

(* The journaled fingerprint is the caller's with the codec name appended,
   so a snapshot written under one payload encoding never decodes under
   another. *)
let codec_tag = "|codec:"

let caller_fingerprint (id : Journal.identity) =
  let fp = id.Journal.fingerprint in
  let k = String.length codec_tag in
  let rec back i =
    if i < 0 then fp
    else if String.equal (String.sub fp i k) codec_tag then String.sub fp 0 i
    else back (i - 1)
  in
  back (String.length fp - k)

let warned_no_codec = Atomic.make false

let run ?jobs ?on_progress ?(retry = 1) ?deadline ?settings ?(signals = [])
    ?(fingerprint = "") ?codec ~label ~rng ~n ~f () =
  if n < 0 then invalid_arg "Checkpoint.run: n must be >= 0";
  if retry < 1 then invalid_arg "Checkpoint.run: retry must be >= 1";
  (* One draw off [rng], exactly like [Runtime.map_rng_samples]:
     the same starting RNG state yields the same substream family whether
     or not the run is checkpointed. *)
  let base_seed64 = Rng.bits64 rng in
  let base_seed = Int64.to_int base_seed64 in
  (* Persistence needs both a directory and a payload codec. *)
  let store =
    match (settings, codec) with
    | Some s, Some c -> Some (s, c, snapshot_path s label)
    | Some _, None ->
      if not (Atomic.exchange warned_no_codec true) then
        Log.warn (fun m ->
            m
              "%s: measurement has no payload codec; checkpoint persistence \
               disabled (deadline/signal handling still active)"
              label);
      None
    | None, _ -> None
  in
  let identity codec =
    {
      Journal.label;
      fingerprint = fingerprint ^ codec_tag ^ codec.codec_name;
      n;
      base_seed = base_seed64;
      max_attempts = retry;
    }
  in
  (* Per-sample persisted state: restored entries first, then whatever
     this run completes.  Guarded by [mu] once workers start. *)
  let persisted : slot option array = Array.make n None in
  let restored_values : (int * 'a) option array = Array.make n None in
  let restored = ref 0 in
  (match store with
  | Some (s, codec, path) when s.resume && Sys.file_exists path -> (
    match Journal.read ~path with
    | Error e -> raise (Journal.Rejected e)
    | Ok snap -> (
      match
        Journal.check_identity ~path ~expected:(identity codec)
          snap.Journal.identity
      with
      | Error e -> raise (Journal.Rejected e)
      | Ok () ->
        Array.iter
          (fun (e : Journal.entry) ->
            let v =
              try codec.decode e.payload
              with exn ->
                raise
                  (Journal.Rejected
                     (Journal.Corrupt
                        { path;
                          detail =
                            Printf.sprintf
                              "sample %d payload does not decode as %s: %s"
                              e.index codec.codec_name
                              (Printexc.to_string exn) }))
            in
            persisted.(e.index) <-
              Some { s_attempts = e.attempts; s_payload = e.payload };
            restored_values.(e.index) <- Some (e.attempts, v);
            incr restored)
          snap.Journal.entries;
        Log.info (fun m ->
            m "%s: restored %d/%d samples from %s" label !restored n path)))
  | _ -> ());
  let mu = Mutex.create () in
  let dirty = ref 0 in
  let flush_locked () =
    match store with
    | Some (_, codec, path) ->
      let entries = ref [] in
      for i = n - 1 downto 0 do
        match persisted.(i) with
        | None -> ()
        | Some sl ->
          entries :=
            { Journal.index = i; attempts = sl.s_attempts;
              payload = sl.s_payload }
            :: !entries
      done;
      let entries = Array.of_list !entries in
      Journal.write ~path { Journal.identity = identity codec; entries };
      Log.debug (fun m ->
          m "%s: checkpointed %d/%d to %s" label (Array.length entries) n path)
    | None -> ()
  in
  let record (s, codec, _) ~index ~attempts v =
    let payload = codec.encode v in
    Mutex.protect mu (fun () ->
        persisted.(index) <- Some { s_attempts = attempts; s_payload = payload };
        incr dirty;
        if s.every > 0 && !dirty >= s.every then begin
          flush_locked ();
          dirty := 0
        end)
  in
  let pending =
    let acc = ref [] in
    for i = n - 1 downto 0 do
      if Option.is_none persisted.(i) then acc := i :: !acc
    done;
    Array.of_list !acc
  in
  (* OCaml encodes portable signals as negative numbers (Sys.sigterm is
     -11), so "no signal yet" needs a sentinel outside the whole signal
     range, not just the negatives. *)
  let sig_flag = Atomic.make min_int in
  let installed =
    List.map
      (fun s ->
        (s, Sys.signal s (Sys.Signal_handle (fun si -> Atomic.set sig_flag si))))
      signals
  in
  let restore_handlers () =
    List.iter (fun (s, old) -> Sys.set_signal s old) installed
  in
  let should_stop () =
    Atomic.get sig_flag <> min_int
    || (match deadline with Some d -> d () | None -> false)
  in
  let f' ~attempt i =
    let v = f ~attempt ~index:i (Rng.substream ~seed:base_seed ~index:i) in
    (match store with
    | Some st -> record st ~index:i ~attempts:(attempt + 1) v
    | None -> ());
    v
  in
  let p =
    Fun.protect ~finally:restore_handlers (fun () ->
        Runtime.map_subset_attempt_samples ?jobs ?on_progress ~retry
          ~should_stop ~n ~indices:pending ~f:f' ())
  in
  (* Final flush: the snapshot always reflects the run's terminal state
     (including a complete one — resuming a finished run is a no-op). *)
  if Option.is_some store then Mutex.protect mu (fun () -> flush_locked ());
  let cells = Array.make n None in
  let attempts = Array.make n 0 in
  Array.iteri
    (fun i r ->
      match r with
      | Some (a, v) ->
        cells.(i) <- Some (Ok v);
        attempts.(i) <- a
      | None -> ())
    restored_values;
  Array.iteri
    (fun i s ->
      match s with
      | Some c ->
        cells.(i) <- Some c;
        attempts.(i) <- p.Runtime.slot_attempts.(i)
      | None -> ())
    p.Runtime.slots;
  let completed =
    Array.fold_left
      (fun acc c -> if Option.is_some c then acc + 1 else acc)
      0 cells
  in
  let stats = p.Runtime.partial_stats in
  let snapshot = Option.map (fun (_, _, path) -> path) store in
  Log.info (fun m ->
      m "%s: n=%d jobs=%d wall=%.3fs rate=%.0f/s failed=%d" label n
        stats.Runtime.jobs stats.Runtime.wall_s stats.Runtime.samples_per_sec
        (Array.fold_left
           (fun acc c ->
             match c with Some (Error _) -> acc + 1 | _ -> acc)
           0 cells));
  let cause =
    match p.Runtime.cause with
    | Runtime.Completed -> Finished
    | Runtime.Stopped ->
      let signal = Atomic.get sig_flag in
      (* The final snapshot is flushed and the old handlers are back:
         unwind to whoever turns a signal into an exit status. *)
      if signal <> min_int then
        raise (Interrupted { label; signal; completed; n; snapshot });
      Log.warn (fun m ->
          m "%s: deadline reached after %d/%d samples (checkpoint %s)" label
            completed n
            (Option.value snapshot ~default:"disabled"));
      Deadline_reached
  in
  {
    label;
    n;
    cells;
    attempts;
    stats;
    cause;
    restored = !restored;
    completed;
    snapshot;
  }

(* --- batch sweeps under the process-wide controls ---------------------- *)

type controls = {
  retry : int;
  checkpoint : settings option;
  deadline : (unit -> bool) option;
  signals : int list;
}

(* Set by the CLIs before any sweep runs; one deadline closure is one
   watchdog, so a whole invocation shares a single wall-clock budget. *)
let current =
  Atomic.make
    {
      retry = 1;
      checkpoint = None;
      deadline = None;
      signals = [];
    }

let controls () = Atomic.get current
let set_controls c = Atomic.set current c

exception
  Too_few_samples of { label : string; completed : int; needed : int; n : int }

let () =
  Printexc.register_printer (function
    | Too_few_samples { label; completed; needed; n } ->
      Some
        (Printf.sprintf
           "Checkpoint.Too_few_samples(%s: only %d/%d samples completed, at \
            least %d needed)"
           label completed n needed)
    | _ -> None)

let collect ?jobs ?(max_failure_frac = 0.2) ?(min_ok = 2) ?fingerprint ?codec
    ~label ~rng ~n ~f () =
  let c = controls () in
  let o =
    run ?jobs ~retry:c.retry ?deadline:c.deadline ?settings:c.checkpoint
      ~signals:c.signals ?fingerprint ?codec ~label ~rng ~n ~f ()
  in
  (* The evaluated cells compacted into a plain run: budget checks and
     downstream statistics treat a partial outcome as a smaller run. *)
  let evaluated =
    List.filter_map
      (fun i -> Option.map (fun c -> (c, o.attempts.(i))) o.cells.(i))
      (List.init n Fun.id)
  in
  let r =
    {
      Runtime.cells = Array.of_list (List.map fst evaluated);
      attempts = Array.of_list (List.map snd evaluated);
      stats = { o.stats with Runtime.n = o.completed };
    }
  in
  Runtime.check_budget ~label ~max_failure_frac r;
  let ok = Runtime.ok_count r in
  if ok < min_ok then
    raise (Too_few_samples { label; completed = ok; needed = min_ok; n });
  r
