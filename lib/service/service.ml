(* The vstatd daemon core: admission control, a supervised pool of worker
   domains over a client-fair queue, and a journal-backed result cache
   bounded by an LRU byte budget.

   Concurrency picture: the accept loop (whichever domain calls [serve]),
   the N worker domains and the supervisor domain share [state] under one
   mutex; workers hold it only to pop/publish, never while computing.
   Each worker generation owns a small set of atomic cells (heartbeat,
   busy job, exit flag, chaos requests) that are written lock-free from
   the hot path — the supervisor reads them to detect crashed workers
   (domain exited; [Domain.join] surfaces the exception) and hung workers
   (no heartbeat past the watchdog budget).  Victims are requeued at the
   front of their client's line and resume from their checkpoint journal,
   so a crashed-and-requeued job returns bit-identical bytes; a job that
   keeps killing workers is quarantined after [poison_retries] rounds.

   OCaml domains cannot be killed, so a hung worker is never reclaimed
   forcibly: the supervisor retires it (a flag its deadline poll checks),
   moves it to the slot's zombie list and spawns a replacement generation.
   The zombie drains at its next sample boundary and its stale result is
   discarded by an ownership check at publish time ([Running] records the
   (worker, generation) pair that owns the job).  The zombie and its
   replacement may briefly race on the same journal file; that is safe
   because journal flushes are write-temp -> fsync -> atomic-rename and
   every sample is a pure function of (spec, index) — either writer's
   snapshot is consistent and correct.

   Nothing polls on a timer except the supervisor's heartbeat tick.  Idle
   workers block on [work], a condition tied to the mutex.  The accept
   loop blocks in [select] on the listen socket and a self-pipe; a
   [Result] on an unfinished job parks its connection, and publishing,
   quarantining and [stop] each write a byte to the pipe so the accept
   loop answers whatever became terminal.  Only the accept domain writes
   to client sockets.

   Shutdown is a single atomic flag: signal handlers call [stop], which
   also wakes the accept loop through the pipe, and every worker's
   deadline polls the flag at sample boundaries — in-flight jobs drain
   gracefully and flush their journals instead of being torn. *)

module P = Protocol
module C = Vstat_runtime.Checkpoint
module Runtime = Vstat_runtime.Runtime
module Deadline = Vstat_runtime.Deadline
module Journal = Vstat_runtime.Journal
module FS = Vstat_device.Fault_inject.Service

let log_src = Logs.Src.create "vstat.service" ~doc:"vstatd daemon core"

module Log = (val Logs.src_log log_src : Logs.LOG)

type config = {
  socket_path : string;
  state_dir : string;
  queue_max : int;
  workers : int;
  jobs : int;
  poison_retries : int;
  hang_timeout_s : float;
  state_max_bytes : int;
  pipeline_seed : int;
  mc_per_geometry : int;
  inject : FS.config option;
}

let pipeline_signature cfg =
  Printf.sprintf "%d:%d" cfg.pipeline_seed cfg.mc_per_geometry

(* Admission-time spec validation: everything here is a [Bad_request],
   shed before any resource is committed. *)
let validate (spec : P.spec) =
  if spec.n < 1 then Error "sample count must be >= 1"
  else if spec.n > 100_000 then
    Error "sample count above 100000 (result frame would exceed max_frame)"
  else if spec.retry < 1 || spec.retry > 16 then
    Error "retry depth outside [1, 16]"
  else if not (Float.is_finite spec.vdd && spec.vdd >= 0.3 && spec.vdd <= 1.5)
  then Error "vdd outside [0.3, 1.5] V"
  else
    match spec.kind with
    | P.Inverter_tpd { fanout } when fanout < 1 || fanout > 16 ->
      Error "fanout outside [1, 16]"
    | P.Inverter_tpd _ | P.Sram_snm _ | P.Idsat -> Ok ()

(* The admission wait estimate, exposed pure for tests: the backlog is in
   samples and the pool drains [workers] jobs concurrently, so the
   expected wait divides by the pool width.  (A single-worker daemon
   reduces to the obvious ewma * backlog.) *)
let estimate_wait_s ~ewma_sample_s ~backlog_samples ~workers =
  ewma_sample_s *. Float.of_int backlog_samples
  /. Float.of_int (Int.max 1 workers)

type job = {
  id : string;
  spec : P.spec;
  canonical : string;
  client : string;
  submitted_ns : int64;
  deadline_s : float;  (* <= 0: none *)
}

(* [round] is the 1-based execution attempt of the whole job (distinct
   from the per-sample retry ladder): bumped every time a crash or hang
   forces a requeue, capped by [poison_retries]. *)
type entry =
  | Queued of { job : job; round : int }
  | Running of { job : job; round : int; wid : int; gen : int }
  | Finished of P.summary
  | Quarantined of { attempts : int; detail : string }

(* One spawned worker generation.  All fields the domain writes are
   atomics; [gen] is immutable and [domain] is supervisor-owned (set once
   right after spawn, cleared at join). *)
type wstate = {
  gen : int;
  heartbeat_ns : int64 Atomic.t;
  busy : string option Atomic.t;
  exited : bool Atomic.t;   (* set in the domain body's [finally] *)
  retired : bool Atomic.t;  (* supervisor verdict: stop, you were replaced *)
  crash_req : bool Atomic.t;      (* chaos: die at the next sample boundary *)
  hang_until_ns : int64 option Atomic.t;  (* chaos: freeze heartbeats *)
  mutable domain : unit Domain.t option;
}

(* A pool slot: a stable identity ([wid]) surviving worker replacement.
   [cur] and [zombies] are mutated only under the state mutex. *)
type slot = {
  wid : int;
  jobs_done : int Atomic.t;  (* across all generations of this slot *)
  mutable cur : wstate;
  mutable zombies : wstate list;
}

type file_entry = { f_bytes : int; f_seq : int }

type t = {
  config : config;
  pipeline : Vstat_core.Pipeline.t;
  listen_fd : Unix.file_descr;
  mu : Mutex.t;
  work : Condition.t;  (* signalled under [mu] when a job is queued *)
  wake_r : Unix.file_descr;  (* self-pipe, both ends non-blocking *)
  wake_w : Unix.file_descr;
  mutable parked : (string * Unix.file_descr) list;
      (* [Result] connections waiting for their job (under [mu]) *)
  table : (string, entry) Hashtbl.t;
  queue : string Fair_queue.t;
  stopping : bool Atomic.t;
  started_ns : int64;
  mutable queued_samples : int;
  mutable running_count : int;
  mutable finished_count : int;
  mutable rejected_count : int;
  mutable cache_hit_count : int;
  mutable served_count : int;
  mutable requeued_count : int;
  mutable quarantined_count : int;
  mutable worker_crash_count : int;
  mutable worker_hang_count : int;
  mutable ewma_sample_s : float; (* smoothed seconds per evaluated sample *)
  (* state-dir accounting (all under [mu]): basename -> size + LRU seq *)
  files : (string, file_entry) Hashtbl.t;
  mutable file_seq : int;
  mutable state_bytes : int;
  mutable evicted_count : int;
  mutable slots : slot array;
  mutable supervisor : unit Domain.t option;
}

(* One byte down the self-pipe wakes the accept loop.  A full pipe
   already holds a pending wake, so [EAGAIN] is dropped. *)
let wake_byte = Bytes.make 1 '!'

let wake t =
  try ignore (Unix.single_write t.wake_w wake_byte 0 1)
  with Unix.Unix_error _ -> ()

let elapsed_s since_ns =
  Int64.to_float (Int64.sub (Deadline.now_ns ()) since_ns) *. 1e-9

(* --- bounded state dir -------------------------------------------------- *)

let snap_basename t id =
  Filename.basename (C.snapshot_path (C.settings t.config.state_dir) id)

let is_bad fname = Filename.check_suffix fname ".bad"

let tracked fname = Filename.check_suffix fname ".ckpt" || is_bad fname

(* The job id a state file belongs to: strip a ".bad" quarantine marker,
   then the snapshot extension. *)
let file_stem fname =
  let f = if is_bad fname then Filename.chop_suffix fname ".bad" else fname in
  Filename.remove_extension f

let note_file_locked t fname =
  match Unix.stat (Filename.concat t.config.state_dir fname) with
  | { Unix.st_kind = Unix.S_REG; st_size; _ } ->
    t.file_seq <- t.file_seq + 1;
    let prev =
      match Hashtbl.find_opt t.files fname with
      | Some e -> e.f_bytes
      | None -> 0
    in
    Hashtbl.replace t.files fname { f_bytes = st_size; f_seq = t.file_seq };
    t.state_bytes <- t.state_bytes + st_size - prev
  | _ -> ()
  | exception Unix.Unix_error _ -> ()

let forget_file_locked t fname =
  match Hashtbl.find_opt t.files fname with
  | Some e ->
    Hashtbl.remove t.files fname;
    t.state_bytes <- t.state_bytes - e.f_bytes
  | None -> ()

(* LRU eviction down to the byte budget.  Quarantined [.bad] files go
   first (they exist only for post-mortems); then least-recently-finished
   journals whose job is neither queued nor running.  [state_max_bytes =
   0] disables the bound.  Evicting a finished job's journal only costs a
   recompute if the daemon restarts and the same spec is resubmitted —
   the in-memory summary keeps serving until then, and determinism makes
   the recompute bit-identical. *)
let evict_locked t =
  let budget = t.config.state_max_bytes in
  if budget > 0 && t.state_bytes > budget then begin
    let active =
      Hashtbl.fold
        (fun id e acc ->
          match e with
          | Queued _ | Running _ -> id :: acc
          | Finished _ | Quarantined _ -> acc)
        t.table []
      |> List.sort String.compare
    in
    let evictable fname =
      is_bad fname || not (List.mem (file_stem fname) active)
    in
    let stop = ref false in
    while t.state_bytes > budget && not !stop do
      let victims =
        Hashtbl.fold
          (fun fname e acc ->
            if not (evictable fname) then acc
            else (((if is_bad fname then 0 else 1), e.f_seq), fname) :: acc)
          t.files []
        (* f_seq is unique, so the rank order is total: the sort pins the
           victim choice independently of hash-bucket order. *)
        |> List.sort compare
      in
      match victims with
      | [] -> stop := true
      | (_, fname) :: _ ->
        (try Sys.remove (Filename.concat t.config.state_dir fname)
         with Sys_error _ -> ());
        forget_file_locked t fname;
        t.evicted_count <- t.evicted_count + 1;
        Log.info (fun m ->
            m "evicted %s (state dir now %d bytes, budget %d)" fname
              t.state_bytes budget)
    done
  end

(* Seed the accounting from whatever a previous daemon left behind.  The
   LRU order is the files' mtime order — wall-clock, but only its
   relative ordering is used, and only to pick eviction victims; no
   sample value ever depends on it. *)
let seed_files_locked t =
  let dir = t.config.state_dir in
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.to_list files
  |> List.filter tracked
  |> List.filter_map (fun f ->
         match Unix.stat (Filename.concat dir f) with
         | { Unix.st_kind = Unix.S_REG; st_size; st_mtime; _ } ->
           Some (f, st_size, st_mtime)
         | _ -> None
         | exception Unix.Unix_error _ -> None)
  |> List.sort (fun (_, _, a) (_, _, b) -> Float.compare a b)
  |> List.iter (fun (f, size, _) ->
         t.file_seq <- t.file_seq + 1;
         Hashtbl.replace t.files f { f_bytes = size; f_seq = t.file_seq };
         t.state_bytes <- t.state_bytes + size)

(* --- job execution ------------------------------------------------------ *)

(* Same fmix64 stream as the device-level chaos harness, extended with the
   job-level round: injective for index < 0x40000 (admission caps n at
   100k) and attempt < 64, with [round = 1] reproducing the historical
   keys.  Mixing the round in means a requeued job re-rolls its fault
   plan — without it, a crash plan keyed only on (index, attempt) would
   fire identically on every rerun and no finite retry budget could ever
   clear the job (except when the configured rate is 1, which is exactly
   how the quarantine drill forces a poison job). *)
let inject_key ~round ~index ~attempt =
  ((((round - 1) * 0x40000) + index) * 64) + attempt

(* Heartbeat: written from every sample-boundary deadline poll — on the
   worker domain itself for serial jobs, on any pool domain for parallel
   ones; either way progress on the job refreshes the slot.  An armed
   [Hang] freeze simply skips the refresh until its deadline passes, so
   the supervisor sees exactly what a wedged worker would look like. *)
let beat st =
  let now = Deadline.now_ns () in
  match Atomic.get st.hang_until_ns with
  | Some until when Int64.compare now until < 0 -> ()
  | Some _ ->
    Atomic.set st.hang_until_ns None;
    Atomic.set st.heartbeat_ns now
  | None -> Atomic.set st.heartbeat_ns now

let measure t (spec : P.spec) rng =
  let tech = Vstat_core.Techs.stochastic_vs t.pipeline ~rng ~vdd:spec.vdd in
  match spec.kind with
  | P.Idsat ->
    Vstat_device.Metrics.idsat
      (tech.Vstat_cells.Celltech.nmos ~w_nm:200.0)
      ~vdd:spec.vdd
  | P.Inverter_tpd { fanout } ->
    let s =
      Vstat_cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout
    in
    (Vstat_cells.Inverter.measure s).Vstat_cells.Inverter.tpd
  | P.Sram_snm { read } ->
    Vstat_cells.Sram6t.snm
      (Vstat_cells.Sram6t.sample tech)
      ~mode:(if read then Vstat_cells.Sram6t.Read else Vstat_cells.Sram6t.Hold)

let sample_fn t st (spec : P.spec) ~round ~attempt ~index rng =
  (* Service-layer chaos first, before the sample body.  A Stall only
     delays this worker and an Abort raises into the retry ladder; a
     Crash or Hang cannot act here — the runtime's retry ladder catches
     every exception a sample raises, so a worker can only die at a
     sample boundary.  Instead they arm atomic requests that the worker's
     deadline poll and heartbeat honour.  Either way the value computed
     from [rng] is unchanged. *)
  (match t.config.inject with
  | None -> ()
  | Some cfg -> (
    match FS.plan cfg ~key:(inject_key ~round ~index ~attempt) with
    | None -> ()
    | Some (FS.Stall s) -> Unix.sleepf s
    | Some FS.Abort ->
      raise
        (Vstat_device.Fault_inject.Injected
           (Printf.sprintf "injected service abort (sample %d attempt %d)"
              index attempt))
    | Some FS.Crash -> Atomic.set st.crash_req true
    | Some (FS.Hang s) ->
      Atomic.set st.hang_until_ns
        (Some (Int64.add (Deadline.now_ns ()) (Int64.of_float (s *. 1e9))))));
  measure t spec rng

let cause_string t = function
  | C.Finished -> "finished"
  | C.Deadline_reached ->
    if Atomic.get t.stopping then "shutdown" else "deadline"

let summary_of_outcome t job (o : float C.outcome) =
  let values = C.values o in
  let len = Array.length values in
  let mean = if len > 0 then Vstat_stats.Descriptive.mean values else Float.nan in
  let std = if len > 1 then Vstat_stats.Descriptive.std values else Float.nan in
  let ci_lo, ci_hi =
    if len > 1 then Vstat_stats.Descriptive.mean_ci values
    else (Float.nan, Float.nan)
  in
  let newly_evaluated = o.C.completed - o.C.restored in
  {
    P.id = job.id;
    n = job.spec.P.n;
    completed = o.C.completed;
    failed = List.length (C.failures o);
    mean;
    std;
    ci_lo;
    ci_hi;
    partial = not (C.is_complete o);
    cause = cause_string t o.C.cause;
    cached = newly_evaluated = 0 && o.C.restored > 0;
    wall_s = o.C.stats.Runtime.wall_s;
    retried = o.C.stats.Runtime.retried_samples;
    values;
  }

let error_summary job detail =
  {
    P.id = job.id;
    n = job.spec.P.n;
    completed = 0;
    failed = job.spec.P.n;
    mean = Float.nan;
    std = Float.nan;
    ci_lo = Float.nan;
    ci_hi = Float.nan;
    partial = true;
    cause = "error: " ^ detail;
    cached = false;
    wall_s = 0.0;
    retried = 0;
    values = [||];
  }

let run_job t st job ~round =
  let settings = C.settings ~every:8 ~resume:true t.config.state_dir in
  let stop_flag () =
    beat st;
    Atomic.get t.stopping || Atomic.get st.retired || Atomic.get st.crash_req
  in
  let deadline =
    if job.deadline_s > 0.0 then begin
      (* The deadline is anchored at submission: queue wait eats budget. *)
      let remaining = job.deadline_s -. elapsed_s job.submitted_ns in
      Deadline.combine
        (Deadline.watchdog ~seconds:(Float.max remaining 1e-3))
        stop_flag
    end
    else stop_flag
  in
  let jobs = if t.config.jobs > 0 then Some t.config.jobs else None in
  let o =
    C.run ?jobs ~retry:job.spec.P.retry ~deadline ~settings
      ~fingerprint:job.canonical
      ~codec:C.float_codec ~label:job.id
      ~rng:(Vstat_util.Rng.create ~seed:job.spec.P.seed)
      ~n:job.spec.P.n
      ~f:(fun ~attempt ~index rng ->
        sample_fn t st job.spec ~round ~attempt ~index rng)
      ()
  in
  summary_of_outcome t job o

let execute t st job ~round =
  match run_job t st job ~round with
  | summary -> summary
  | exception Journal.Rejected e ->
    (* The cached snapshot under this content address does not belong to
       this job (CRC collision or stale file): quarantine it — the typed
       error names the path — and recompute from scratch. *)
    let path = Journal.error_path e in
    Log.warn (fun m ->
        m "job %s: quarantining snapshot: %s" job.id (Journal.error_to_string e));
    (try Sys.rename path (path ^ ".bad") with Sys_error _ -> ());
    Mutex.protect t.mu (fun () ->
        let base = Filename.basename path in
        forget_file_locked t base;
        note_file_locked t (base ^ ".bad"));
    (match run_job t st job ~round with
    | summary -> summary
    | exception exn -> error_summary job (Printexc.to_string exn))
  | exception exn -> error_summary job (Printexc.to_string exn)

(* Publish under the ownership check: only the (worker, generation) pair
   recorded in the [Running] entry may land a result.  A zombie waking up
   after the watchdog replaced it falls through here and its summary is
   discarded — the requeued run's (identical) result is the one served. *)
let publish t job summary ~wid ~gen =
  Mutex.protect t.mu (fun () ->
      match Hashtbl.find_opt t.table job.id with
      | Some (Running { wid = w; gen = g; _ }) when w = wid && g = gen ->
        Hashtbl.replace t.table job.id (Finished summary);
        t.running_count <- t.running_count - 1;
        t.finished_count <- t.finished_count + 1;
        let evaluated = summary.P.completed in
        let newly = evaluated - if summary.P.cached then evaluated else 0 in
        if newly > 0 && summary.P.wall_s > 0.0 then begin
          let per = summary.P.wall_s /. Float.of_int newly in
          t.ewma_sample_s <-
            (if t.ewma_sample_s <= 0.0 then per
             else (0.7 *. t.ewma_sample_s) +. (0.3 *. per))
        end;
        note_file_locked t (snap_basename t job.id);
        evict_locked t;
        wake t;
        true
      | _ -> false)

(* Block until a job is queued and claim it, or return [None] once the
   daemon is stopping or this generation was retired.  Both flags are
   checked under the mutex before every wait.  [serve] broadcasts [work]
   under it after setting [stopping]; retirement needs no wakeup, since
   the supervisor retires only busy workers and a worker clears [busy]
   before it gets here. *)
let next_job t ~wid st =
  Mutex.protect t.mu (fun () ->
      let rec take () =
        if Atomic.get t.stopping || Atomic.get st.retired then None
        else
          match Fair_queue.pop t.queue with
          | None ->
            Condition.wait t.work t.mu;
            take ()
          | Some id -> (
            match Hashtbl.find_opt t.table id with
            | Some (Queued { job; round }) ->
              Hashtbl.replace t.table id
                (Running { job; round; wid; gen = st.gen });
              t.queued_samples <- t.queued_samples - job.spec.P.n;
              t.running_count <- t.running_count + 1;
              Some (job, round)
            | _ -> take () (* stale id; keep draining *))
      in
      take ())

let rec worker_loop t ~wid ~jobs_done st =
  beat st;
  match next_job t ~wid st with
  | None -> ()
  | Some (job, round) ->
    Atomic.set st.crash_req false;
    Atomic.set st.hang_until_ns None;
    (* The heartbeat aged while the worker sat idle; refresh it before
       [busy] puts the worker under the watchdog. *)
    beat st;
    Atomic.set st.busy (Some job.id);
    let summary = execute t st job ~round in
    if Atomic.get st.crash_req then
      (* The drained run already flushed its journal; dying here (and
         not publishing) is exactly what a segfaulting worker looks
         like to the supervisor, minus the lost process. *)
      raise
        (FS.Crashed
           (Printf.sprintf "injected worker crash (worker %d, job %s, \
                            round %d)"
              wid job.id round));
    let owned = publish t job summary ~wid ~gen:st.gen in
    Atomic.set st.busy None;
    if owned then begin
      Atomic.incr jobs_done;
      Log.info (fun m ->
          m "job %s: %s (%d/%d samples, %.3fs, worker %d)" job.id
            summary.P.cause summary.P.completed summary.P.n summary.P.wall_s
            wid)
    end
    else
      Log.info (fun m ->
          m "job %s: stale result from replaced worker %d gen %d discarded"
            job.id wid st.gen);
    worker_loop t ~wid ~jobs_done st

let spawn_worker t ~wid ~jobs_done ~gen =
  let st =
    {
      gen;
      heartbeat_ns = Atomic.make (Deadline.now_ns ());
      busy = Atomic.make None;
      exited = Atomic.make false;
      retired = Atomic.make false;
      crash_req = Atomic.make false;
      hang_until_ns = Atomic.make None;
      domain = None;
    }
  in
  let d =
    Domain.spawn (fun () ->
        (* [exited] flips even when the body raises, so the supervisor's
           [Domain.join] never blocks on a live domain. *)
        Fun.protect
          ~finally:(fun () -> Atomic.set st.exited true)
          (fun () -> worker_loop t ~wid ~jobs_done st))
  in
  st.domain <- Some d;
  st

(* --- supervisor --------------------------------------------------------- *)

(* The hung-worker budget: heartbeats land at every sample boundary, so a
   healthy worker is silent for about one sample.  Eight smoothed sample
   times absorbs cost variance (a DFF bisection vs a device metric);
   [hang_timeout_s] floors the budget while the EWMA is still cold and
   lets tests pick a tight drill clock. *)
let watchdog_budget_locked t =
  Float.max t.config.hang_timeout_s (8.0 *. t.ewma_sample_s)

(* A worker generation owns at most one [Running] entry at a time, so the
   fold finds at most one match; the sort makes the pick independent of
   hash-bucket order all the same. *)
let victim_locked t ~wid ~gen =
  Hashtbl.fold
    (fun id e acc ->
      match e with
      | Running { job; round; wid = w; gen = g } when w = wid && g = gen ->
        (id, job, round) :: acc
      | _ -> acc)
    t.table []
  |> List.sort (fun (a, _, _) (b, _, _) -> String.compare a b)
  |> fun l -> List.nth_opt l 0

(* A worker died (or hung) while owning [job] on its [round]-th attempt:
   put the job back at the front of its client's line, or retire it for
   good once the poison budget is spent.  Requeued jobs resume from their
   checkpoint journal, so the eventual summary is bit-identical to an
   uninterrupted run. *)
let requeue_locked t (id, job, round) ~detail =
  t.running_count <- t.running_count - 1;
  if round >= t.config.poison_retries then begin
    Hashtbl.replace t.table id (Quarantined { attempts = round; detail });
    t.quarantined_count <- t.quarantined_count + 1;
    wake t;
    Log.err (fun m ->
        m "job %s: quarantined after %d attempt(s): %s" id round detail)
  end
  else begin
    Hashtbl.replace t.table id (Queued { job; round = round + 1 });
    Fair_queue.push_front t.queue ~client:job.client id;
    Condition.signal t.work;
    t.queued_samples <- t.queued_samples + job.spec.P.n;
    t.requeued_count <- t.requeued_count + 1;
    Log.warn (fun m ->
        m "job %s: requeued (attempt %d/%d): %s" id (round + 1)
          t.config.poison_retries detail)
  end

let check_slot_locked t now slot =
  (* Reap zombies whose domains finally drained. *)
  slot.zombies <-
    List.filter
      (fun z ->
        if Atomic.get z.exited then begin
          (match z.domain with
          | Some d -> (
            match Domain.join d with
            | () -> ()
            | exception exn ->
              (* Its job was already requeued when it was retired; the
                 late exception is post-mortem detail, not a new victim. *)
              Log.info (fun m ->
                  m "worker %d gen %d (replaced) exited with: %s" slot.wid
                    z.gen (Printexc.to_string exn)))
          | None -> ());
          false
        end
        else true)
      slot.zombies;
  let cur = slot.cur in
  if Atomic.get cur.exited then begin
    if not (Atomic.get t.stopping) then begin
      (* The only legitimate exits are shutdown and retirement, and a
         retired worker lives in [zombies] — so a [cur] that exited here
         either crashed (join surfaces the exception) or fell off its
         loop unexpectedly.  Either way: account, requeue its victim,
         respawn the slot. *)
      let crash =
        match cur.domain with
        | None -> None
        | Some d -> (
          match Domain.join d with
          | () -> None
          | exception exn -> Some exn)
      in
      cur.domain <- None;
      (match crash with
      | Some exn ->
        t.worker_crash_count <- t.worker_crash_count + 1;
        let detail =
          Printf.sprintf "worker crashed: %s" (Printexc.to_string exn)
        in
        Log.warn (fun m ->
            m "worker %d gen %d died: %s" slot.wid cur.gen
              (Printexc.to_string exn));
        (match victim_locked t ~wid:slot.wid ~gen:cur.gen with
        | Some v -> requeue_locked t v ~detail
        | None -> ())
      | None ->
        Log.warn (fun m ->
            m "worker %d gen %d exited unexpectedly; respawning" slot.wid
              cur.gen));
      slot.cur <-
        spawn_worker t ~wid:slot.wid ~jobs_done:slot.jobs_done
          ~gen:(cur.gen + 1)
    end
  end
  else begin
    match Atomic.get cur.busy with
    | None -> () (* idle: blocked on [work], no job, no watchdog *)
    | Some id ->
      let age_s =
        Int64.to_float (Int64.sub now (Atomic.get cur.heartbeat_ns)) *. 1e-9
      in
      let budget = watchdog_budget_locked t in
      if age_s > budget then begin
        t.worker_hang_count <- t.worker_hang_count + 1;
        Atomic.set cur.retired true;
        let detail =
          Printf.sprintf
            "worker %d heartbeat silent for %.2fs (budget %.2fs) on job %s"
            slot.wid age_s budget id
        in
        Log.warn (fun m -> m "%s; replacing worker" detail);
        (match victim_locked t ~wid:slot.wid ~gen:cur.gen with
        | Some v -> requeue_locked t v ~detail
        | None -> ());
        slot.zombies <- cur :: slot.zombies;
        slot.cur <-
          spawn_worker t ~wid:slot.wid ~jobs_done:slot.jobs_done
            ~gen:(cur.gen + 1)
      end
  end

(* The one timer left in the daemon: heartbeats must be checked whether
   or not anything else happens. *)
let heartbeat_tick_s = 0.025

let rec supervisor_loop t =
  if Atomic.get t.stopping then ()
  else begin
    let now = Deadline.now_ns () in
    Mutex.protect t.mu (fun () -> Array.iter (check_slot_locked t now) t.slots);
    Unix.sleepf heartbeat_tick_s;
    supervisor_loop t
  end

(* --- admission ---------------------------------------------------------- *)

let enqueue_locked t job ~round =
  Hashtbl.replace t.table job.id (Queued { job; round });
  Fair_queue.push t.queue ~client:job.client job.id;
  Condition.signal t.work;
  t.queued_samples <- t.queued_samples + job.spec.P.n

let admit t (spec : P.spec) ~deadline_s ~client =
  match validate spec with
  | Error detail ->
    Mutex.protect t.mu (fun () -> t.rejected_count <- t.rejected_count + 1);
    P.Rejected { reason = P.Bad_request { detail } }
  | Ok () ->
    let canonical =
      P.spec_canonical ~pipeline:(pipeline_signature t.config) spec
    in
    let id = P.job_id canonical in
    Mutex.protect t.mu (fun () ->
        match Hashtbl.find_opt t.table id with
        | Some (Finished _) ->
          t.cache_hit_count <- t.cache_hit_count + 1;
          P.Accepted { id; cached = true }
        | Some (Queued _ | Running _ | Quarantined _) ->
          P.Accepted { id; cached = false }
        | None ->
          let backlog = t.queued_samples + spec.P.n in
          let estimated_wait_s =
            estimate_wait_s ~ewma_sample_s:t.ewma_sample_s
              ~backlog_samples:backlog ~workers:t.config.workers
          in
          if deadline_s > 0.0 && estimated_wait_s > deadline_s then begin
            t.rejected_count <- t.rejected_count + 1;
            P.Rejected
              { reason = P.Over_deadline { estimated_wait_s; deadline_s } }
          end
          else if Fair_queue.length t.queue >= t.config.queue_max then begin
            t.rejected_count <- t.rejected_count + 1;
            P.Rejected
              {
                reason =
                  P.Queue_full
                    {
                      queued = Fair_queue.length t.queue;
                      queue_max = t.config.queue_max;
                    };
              }
          end
          else begin
            enqueue_locked t
              {
                id;
                spec;
                canonical;
                client;
                submitted_ns = Deadline.now_ns ();
                deadline_s;
              }
              ~round:1;
            P.Accepted { id; cached = false }
          end)

let health t =
  let now = Deadline.now_ns () in
  Mutex.protect t.mu (fun () ->
      let workers =
        Array.to_list t.slots
        |> List.map (fun slot ->
               let cur = slot.cur in
               {
                 P.wid = slot.wid;
                 generation = cur.gen;
                 busy = Atomic.get cur.busy;
                 heartbeat_age_s =
                   Int64.to_float
                     (Int64.sub now (Atomic.get cur.heartbeat_ns))
                   *. 1e-9;
                 jobs_done = Atomic.get slot.jobs_done;
               })
      in
      P.Health_report
        {
          uptime_s = elapsed_s t.started_ns;
          queued = Fair_queue.length t.queue;
          running = t.running_count;
          finished = t.finished_count;
          rejected = t.rejected_count;
          cache_hits = t.cache_hit_count;
          served = t.served_count;
          requeued = t.requeued_count;
          quarantined = t.quarantined_count;
          worker_crashes = t.worker_crash_count;
          worker_hangs = t.worker_hang_count;
          state_bytes = t.state_bytes;
          evicted = t.evicted_count;
          workers;
        })

(* The answer to [Result {id}], or [None] while the job is still queued
   or running. *)
let result_locked t id =
  match Hashtbl.find_opt t.table id with
  | None -> Some (P.Unknown_id { id })
  | Some (Queued _ | Running _) -> None
  | Some (Quarantined { attempts; detail }) ->
    Some (P.Quarantined { id; attempts; detail })
  | Some (Finished summary) ->
    t.served_count <- t.served_count + 1;
    Some (P.Job_result summary)

(* [None]: a [Result] on an unfinished job, whose connection [fd] is now
   parked for [answer_parked]. *)
let handle t fd req =
  match req with
  | P.Submit { spec; deadline_s; client } ->
    Some (admit t spec ~deadline_s ~client)
  | P.Result { id } ->
    Mutex.protect t.mu (fun () ->
        let answer = result_locked t id in
        if Option.is_none answer then t.parked <- (id, fd) :: t.parked;
        answer)
  | P.Health -> Some (health t)
  | P.Shutdown ->
    Atomic.set t.stopping true;
    Some P.Shutting_down

(* --- startup recovery --------------------------------------------------- *)

let recover t =
  Mutex.protect t.mu (fun () -> seed_files_locked t);
  let dir = t.config.state_dir in
  let files = try Sys.readdir dir with Sys_error _ -> [||] in
  Array.sort String.compare files;
  Array.iter
    (fun f ->
      if Filename.check_suffix f ".ckpt" then begin
        let path = Filename.concat dir f in
        match Journal.read ~path with
        | Error e ->
          (* The typed payload names the offending snapshot; quarantine it
             so a corrupt cache entry cannot wedge every restart. *)
          Log.warn (fun m ->
              m "recovery: quarantining: %s" (Journal.error_to_string e));
          (try Sys.rename path (path ^ ".bad") with Sys_error _ -> ());
          Mutex.protect t.mu (fun () ->
              forget_file_locked t f;
              note_file_locked t (f ^ ".bad"))
        | Ok snap -> (
          let fp = C.caller_fingerprint snap.Journal.identity in
          match P.canonical_pipeline fp with
          | Some p when String.equal p (pipeline_signature t.config) -> (
            match P.spec_of_canonical fp with
            | Error detail ->
              Log.warn (fun m ->
                  m "recovery: %s: unparseable fingerprint (%s); skipped" path
                    detail)
            | Ok spec ->
              let id = P.job_id fp in
              if String.equal id snap.Journal.identity.Journal.label then begin
                let done_n = Array.length snap.Journal.entries in
                Log.info (fun m ->
                    m "recovery: %s: %d/%d samples; re-enqueued" path done_n
                      spec.P.n);
                (* Re-run through the normal path: Checkpoint resume
                   restores completed samples bit-identically from the
                   journal, so a finished job costs nothing and a partial
                   one computes only its missing indices. *)
                Mutex.protect t.mu (fun () ->
                    enqueue_locked t
                      {
                        id;
                        spec;
                        canonical = fp;
                        client = "recovered";
                        submitted_ns = Deadline.now_ns ();
                        deadline_s = 0.0;
                      }
                      ~round:1)
              end
              else
                Log.warn (fun m ->
                    m "recovery: %s: label %s does not match content id %s; \
                       skipped"
                      path snap.Journal.identity.Journal.label id))
          | _ ->
            Log.info (fun m ->
                m "recovery: %s: different pipeline signature; left in place"
                  path))
      end)
    files;
  (* A previous daemon may have run with a larger (or no) byte budget;
     trim to ours before accepting work.  Queued recovered jobs are
     protected, so a journal we just promised to resume is never the
     victim of its own restart. *)
  Mutex.protect t.mu (fun () -> evict_locked t)

(* --- connection handling ------------------------------------------------ *)

(* Write one response and close.  A parked client that gave up fails the
   write with [EPIPE]: worth a debug line, no more. *)
let respond fd resp =
  (match P.write_frame fd (P.encode_response resp) with
  | Ok () -> ()
  | Error e ->
    Log.debug (fun m -> m "response write failed: %s" (P.error_to_string e)));
  try Unix.close fd with Unix.Unix_error _ -> ()

let handle_conn t fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0;
  let bad_request e =
    Some
      (P.Rejected { reason = P.Bad_request { detail = P.error_to_string e } })
  in
  let resp =
    match P.read_frame fd with
    | Error e ->
      (* A half-open or garbled client: answer typed if the socket still
         writes, then drop. *)
      bad_request e
    | Ok payload -> (
      match P.decode_request payload with
      | Error e ->
        Mutex.protect t.mu (fun () -> t.rejected_count <- t.rejected_count + 1);
        bad_request e
      | Ok req -> handle t fd req)
  in
  Option.iter (respond fd) resp

(* Answer every parked [Result] whose job is now terminal; the rest stay
   parked.  Writes happen outside the mutex. *)
let answer_parked t =
  Mutex.protect t.mu (fun () ->
      let ready, waiting =
        List.partition_map
          (fun (id, fd) ->
            match result_locked t id with
            | Some resp -> Either.Left (fd, resp)
            | None -> Either.Right (id, fd))
          t.parked
      in
      t.parked <- waiting;
      ready)
  |> List.iter (fun (fd, resp) -> respond fd resp)

(* --- lifecycle ---------------------------------------------------------- *)

let create ?pipeline config =
  if config.queue_max < 1 then
    invalid_arg "Service.create: queue_max must be >= 1";
  if config.workers < 1 then
    invalid_arg "Service.create: workers must be >= 1";
  if config.poison_retries < 1 then
    invalid_arg "Service.create: poison_retries must be >= 1";
  if not (Float.is_finite config.hang_timeout_s && config.hang_timeout_s > 0.0)
  then invalid_arg "Service.create: hang_timeout_s must be positive";
  if config.state_max_bytes < 0 then
    invalid_arg "Service.create: state_max_bytes must be >= 0 (0 = unbounded)";
  if config.mc_per_geometry < 10 then
    invalid_arg "Service.create: mc_per_geometry must be >= 10";
  Vstat_util.Atomic_io.ensure_dir config.state_dir;
  Vstat_util.Atomic_io.ensure_dir (Filename.dirname config.socket_path);
  let pipeline =
    match pipeline with
    | Some p -> p
    | None ->
      Log.info (fun m ->
          m "building statistical pipeline (seed %d, %d samples/geometry)"
            config.pipeline_seed config.mc_per_geometry);
      Vstat_core.Pipeline.build ~seed:config.pipeline_seed
        ~mc_per_geometry:config.mc_per_geometry ()
  in
  if Sys.file_exists config.socket_path then
    (try Sys.remove config.socket_path with Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX config.socket_path);
  Unix.listen listen_fd 64;
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let t =
    {
      config;
      pipeline;
      listen_fd;
      mu = Mutex.create ();
      work = Condition.create ();
      wake_r;
      wake_w;
      parked = [];
      table = Hashtbl.create 64;
      queue = Fair_queue.create ();
      stopping = Atomic.make false;
      started_ns = Deadline.now_ns ();
      queued_samples = 0;
      running_count = 0;
      finished_count = 0;
      rejected_count = 0;
      cache_hit_count = 0;
      served_count = 0;
      requeued_count = 0;
      quarantined_count = 0;
      worker_crash_count = 0;
      worker_hang_count = 0;
      ewma_sample_s = 0.0;
      files = Hashtbl.create 64;
      file_seq = 0;
      state_bytes = 0;
      evicted_count = 0;
      slots = [||];
      supervisor = None;
    }
  in
  recover t;
  t.slots <-
    Array.init config.workers (fun wid ->
        let jobs_done = Atomic.make 0 in
        { wid; jobs_done; cur = spawn_worker t ~wid ~jobs_done ~gen:1;
          zombies = [] });
  t.supervisor <- Some (Domain.spawn (fun () -> supervisor_loop t));
  Log.info (fun m ->
      m "listening on %s (%d worker%s)" config.socket_path config.workers
        (if config.workers = 1 then "" else "s"));
  t

(* Only the first call wakes the accept loop: once [stopping] is set the
   loop is bound to exit, after which [serve] closes the pipe. *)
let stop t = if not (Atomic.exchange t.stopping true) then wake t

let accept_one t =
  match Unix.accept ~cloexec:true t.listen_fd with
  | fd, _ -> (
    try handle_conn t fd
    with exn ->
      Log.warn (fun m ->
          m "connection handler raised: %s" (Printexc.to_string exn));
      try Unix.close fd with Unix.Unix_error _ -> ())
  | exception
      Unix.Unix_error
        ((Unix.EINTR | Unix.ECONNABORTED | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
    -> ()

let serve t =
  let rec loop () =
    if not (Atomic.get t.stopping) then begin
      (match Unix.select [ t.listen_fd; t.wake_r ] [] [] (-1.0) with
      | ready, _, _ ->
        if List.mem t.wake_r ready then begin
          (* Wake bytes carry nothing; any this read leaves behind just
             wake the next select. *)
          (try ignore (Unix.read t.wake_r (Bytes.create 64) 0 64)
           with Unix.Unix_error _ -> ());
          answer_parked t
        end;
        if List.mem t.listen_fd ready then accept_one t
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ();
  Mutex.protect t.mu (fun () ->
      let parked = t.parked in
      t.parked <- [];
      Condition.broadcast t.work;
      parked)
  |> List.iter (fun (_, fd) -> respond fd P.Shutting_down);
  Log.info (fun m -> m "draining %d worker(s)" (Array.length t.slots));
  (match t.supervisor with
  | Some d ->
    Domain.join d;
    t.supervisor <- None
  | None -> ());
  (* Every live worker — current or zombie — sees [stopping] at its next
     sample boundary, flushes its journal and exits; joining them here is
     what makes shutdown graceful rather than torn.  (An injected Hang
     only freezes heartbeats, never the domain, so zombies wake up too.) *)
  let join_st wid st =
    match st.domain with
    | None -> ()
    | Some d ->
      (match Domain.join d with
      | () -> ()
      | exception exn ->
        Log.warn (fun m ->
            m "worker %d gen %d died during shutdown: %s" wid st.gen
              (Printexc.to_string exn)));
      st.domain <- None
  in
  Array.iter
    (fun slot ->
      join_st slot.wid slot.cur;
      List.iter (join_st slot.wid) slot.zombies)
    t.slots;
  List.iter
    (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ t.listen_fd; t.wake_r; t.wake_w ];
  (try Sys.remove t.config.socket_path with Sys_error _ -> ());
  Log.info (fun m -> m "stopped")
