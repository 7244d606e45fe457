(* Settings, timing helpers and the correctness ledger shared by the
   workloads. *)

module Pipeline = Vstat_core.Pipeline

(* Worker domains (or client connections) per workload: the pool width the
   benchmark is sized for, fixed so a machine with more cores runs the
   same work. *)
let jobs = 2

(* The seed whose per-round results are pinned in pins.txt. *)
let default_seed = 1

type opts = {
  seed : int;
  seconds : float;  (** measured time; rounds run until it is spent *)
  traced : bool;
  toy : bool;  (** smoke size: 16-sample rounds, 2 rounds, 4 jobs per client *)
  work_dir : string;  (** journals, service state and traces *)
}

(* Metrics are reported by name; their units and the set each mode must
   print come from BENCHMARK.json.  A per-layer metric a workload does not
   produce does not apply to it and reads 0.  [raw] holds the end-to-end
   timings before host-speed correction ([Host]), for the log. *)
type outcome = {
  attempted : int;  (** samples (MC workloads) or jobs (service) *)
  failed : int;
  metrics : (string * float) list;
  raw : (string * float) list;
}

let seconds_since t0 = Float.of_int (Probe.now_ns () - t0) *. 1e-9

let timed f =
  let t0 = Probe.now_ns () in
  let r = f () in
  (r, seconds_since t0)

(* --- correctness ledger ---------------------------------------------------- *)

(* Every failed check is kept, so one run reports all of them. *)
type ledger = { mutable errors : string list }

let ledger () = { errors = [] }

let fail l fmt =
  Printf.ksprintf (fun msg -> l.errors <- msg :: l.errors) fmt

let require l cond fmt =
  Printf.ksprintf (fun msg -> if not cond then l.errors <- msg :: l.errors) fmt

let errors l = List.rev l.errors

(* |a - b| <= tol |b| *)
let close ~tol a b = Float.abs (a -. b) <= tol *. Float.abs b

let same_bits a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* --- set-up ---------------------------------------------------------------- *)

(* The statistical-VS extraction every vstat command pays
   ([Pipeline.default]).  Set-up time is the median of [reps] builds
   spread over the run ([setup_step] between rounds), so one slow stretch
   of the host cannot set it; the first build's pipeline is the one used. *)
type setup = {
  reps : int;
  pipeline : Pipeline.t;
  mutable builds : (float * float) list;  (** host-corrected, raw seconds *)
}

let timed_build () =
  let (p, raw), host =
    Host.around ~domains:jobs (fun () ->
        timed (fun () -> Pipeline.build ~seed:42 ~jobs ~mc_per_geometry:2000 ()))
  in
  (p, (raw *. host, raw))

let setup opts =
  let pipeline, build = timed_build () in
  { reps = (if opts.toy || opts.traced then 1 else 5); pipeline; builds = [ build ] }

let setup_step s ~elapsed ~seconds =
  let n = List.length s.builds in
  if n < s.reps && elapsed >= Float.of_int n *. seconds /. Float.of_int s.reps then
    s.builds <- snd (timed_build ()) :: s.builds

(* (corrected, raw) median set-up seconds, finishing any builds the run
   ended before. *)
let setup_time s =
  while List.length s.builds < s.reps do
    s.builds <- snd (timed_build ()) :: s.builds
  done;
  let median f = Stats.median (Array.of_list (List.map f s.builds)) in
  (median fst, median snd)

(* --- files ----------------------------------------------------------------- *)

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* An empty directory under the work dir, removed first if a previous run
   left it behind: journals of equal seeds would otherwise be cache hits. *)
let fresh_dir opts name =
  let dir = Filename.concat opts.work_dir name in
  rm_rf dir;
  mkdir_p dir;
  dir

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* VmHWM: the process's peak resident set. *)
let peak_rss_mb () =
  let from_proc =
    try
      In_channel.with_open_text "/proc/self/status" (fun ic ->
          let rec scan () =
            match In_channel.input_line ic with
            | None -> None
            | Some line when String.starts_with ~prefix:"VmHWM:" line ->
              Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some kb)
            | Some _ -> scan ()
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some kb -> Float.of_int kb /. 1024.0
  | None ->
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.0

(* The cost of one journal flush: median time to rewrite the snapshot at
   [path] (next to it), ms. *)
let journal_write_ms path =
  let module J = Vstat_runtime.Journal in
  match J.read ~path with
  | Error e -> failwith (J.error_to_string e)
  | Ok snap ->
    Stats.median
      (Array.init 5 (fun _ ->
           1e3 *. snd (timed (fun () -> J.write ~path:(path ^ ".copy") snap))))

(* KiB allocated while [f] runs, for the per-sample allocation figure
   (measured on a jobs:1 replay, so every word is the samples'). *)
let allocated_kib f =
  let words () =
    let s = Gc.quick_stat () in
    s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words
  in
  let w0 = words () in
  let r = f () in
  (r, (words () -. w0) *. Float.of_int (Sys.word_size / 8) /. 1024.0)

