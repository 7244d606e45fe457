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
   work ever happens inside a signal handler. *)

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

(* A codec for values that cannot be persisted: lets a caller reuse the
   deadline/signal machinery of [run] without checkpoint [settings].
   Encoding or decoding through it is a programming error by construction
   (the driver only touches the codec when settings are present). *)
let opaque_codec name =
  let reject _ =
    invalid_arg
      (Printf.sprintf
         "Checkpoint.opaque_codec(%s): this value type cannot be persisted"
         name)
  in
  {
    codec_name = "opaque:" ^ name;
    encode = reject;
    decode = reject;
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

type cause = Finished | Deadline_reached | Signalled of int

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

(* The evaluated cells compacted into a plain [Runtime.run] (stats.n =
   evaluated count): budget checks and downstream statistics treat a
   partial outcome exactly like a smaller run. *)
let completed_run o =
  let cells = ref [] and attempts = ref [] in
  for i = o.n - 1 downto 0 do
    match o.cells.(i) with
    | Some c ->
      cells := c :: !cells;
      attempts := o.attempts.(i) :: !attempts
    | None -> ()
  done;
  {
    Runtime.cells = Array.of_list !cells;
    attempts = Array.of_list !attempts;
    stats = { o.stats with Runtime.n = o.completed };
  }

(* --- the driver -------------------------------------------------------- *)

type slot = { s_attempts : int; s_payload : string }

let run ?jobs ?on_progress ?(retry = Runtime.no_retry) ?deadline ?settings:cfg
    ?(signals = []) ?(fingerprint = "") ~codec ~label ~rng ~n ~f () =
  if n < 0 then invalid_arg "Checkpoint.run: n must be >= 0";
  (* One draw off [rng], exactly like [Runtime.map_rng_samples]:
     the same starting RNG state yields the same substream family whether
     or not the run is checkpointed. *)
  let base_seed64 = Rng.bits64 rng in
  let base_seed = Int64.to_int base_seed64 in
  let identity =
    {
      Journal.label;
      fingerprint =
        String.concat "|" [ fingerprint; "codec:" ^ codec.codec_name ];
      n;
      base_seed = base_seed64;
      max_attempts = retry.Runtime.max_attempts;
    }
  in
  let spath = Option.map (fun s -> snapshot_path s label) cfg in
  (* Per-sample persisted state: restored entries first, then whatever
     this run completes.  Guarded by [mu] once workers start. *)
  let persisted : slot option array = Array.make n None in
  let restored_values : (int * 'a) option array = Array.make n None in
  let restored = ref 0 in
  (match (cfg, spath) with
  | Some s, Some path when s.resume && Sys.file_exists path -> (
    match Journal.read ~path with
    | Error e -> raise (Journal.Rejected e)
    | Ok snap -> (
      match
        Journal.check_identity ~path ~expected:identity snap.Journal.identity
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
    match spath with
    | Some path ->
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
      Journal.write ~path { Journal.identity; entries };
      Log.debug (fun m ->
          m "%s: checkpointed %d/%d to %s" label (Array.length entries) n path)
    | None -> ()
  in
  let record ~index ~attempts v =
    let payload = codec.encode v in
    Mutex.protect mu (fun () ->
        persisted.(index) <- Some { s_attempts = attempts; s_payload = payload };
        incr dirty;
        match cfg with
        | Some s when s.every > 0 && !dirty >= s.every ->
          flush_locked ();
          dirty := 0
        | _ -> ())
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
    if Option.is_some cfg then record ~index:i ~attempts:(attempt + 1) v;
    v
  in
  let p =
    Fun.protect ~finally:restore_handlers (fun () ->
        Runtime.map_subset_attempt_samples ?jobs ?on_progress ~retry
          ~should_stop ~n ~indices:pending ~f:f' ())
  in
  (* Final flush: the snapshot always reflects the run's terminal state
     (including a complete one — resuming a finished run is a no-op). *)
  if Option.is_some cfg then Mutex.protect mu (fun () -> flush_locked ());
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
  let cause =
    match p.Runtime.cause with
    | Runtime.Completed -> Finished
    | Runtime.Stopped -> (
      match Atomic.get sig_flag with
      | s when s <> min_int -> Signalled s
      | _ -> Deadline_reached)
  in
  (match cause with
  | Finished -> ()
  | Deadline_reached ->
    Log.warn (fun m ->
        m "%s: deadline reached after %d/%d samples (checkpoint %s)" label
          completed n
          (match spath with Some pth -> pth | None -> "disabled"))
  | Signalled s ->
    Log.warn (fun m ->
        m "%s: signal %d after %d/%d samples (checkpoint %s)" label
          (os_signal_number s) completed n
          (match spath with Some pth -> pth | None -> "disabled")));
  {
    label;
    n;
    cells;
    attempts;
    stats = p.Runtime.partial_stats;
    cause;
    restored = !restored;
    completed;
    snapshot = spath;
  }
