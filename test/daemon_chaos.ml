(* Daemon kill/restart chaos drill (alias @chaos, also wired into @runtest).

   Three vstatd instances run as forked children serving the same job
   spec against the same extraction pipeline settings:

   - golden: jobs:1, no fault injection, runs the job to completion
     while a raw [Result] for it sits parked, then parks a [Result] on a
     long job and shuts down under it;
   - victim: jobs:2, armed with deterministic worker stalls so the job
     is reliably mid-flight when a short [Client.await] times out and
     the parent sends SIGTERM.  The daemon drains at a sample boundary
     and flushes its journal;
   - restart: jobs:4 on the victim's state directory, armed with a
     stall+abort mix to also exercise the retry ladder during resume.
     Startup recovery re-enqueues the interrupted journal; resubmitting
     the same spec dedupes onto it.

   The contract under drill: the restarted daemon's result must be
   bit-identical to the golden daemon's — same sample values, mean, std
   and confidence interval to the last IEEE bit — because every sample is
   a pure function of (spec, index) and fault injection is value-neutral.

   The parent forks before any child builds its pipeline or spawns its
   worker domain, and itself never spawns domains, so fork stays safe. *)

module P = Vstat_service.Protocol
module S = Vstat_service.Service
module Client = Vstat_service.Client
module FS = Vstat_device.Fault_inject.Service
module Deadline = Vstat_runtime.Deadline

let pipeline_seed = 42
let mc_per_geometry = 40

let spec =
  { P.kind = P.Inverter_tpd { fanout = 3 }; n = 400; seed = 20130318;
    vdd = 1.0; retry = 4 }

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("daemon_chaos: " ^ m);
      exit 1)
    fmt

let config ?(workers = 1) ?(poison_retries = 3) ?(hang_timeout_s = 30.0)
    ?(state_max_bytes = 0) ~dir ~jobs ~inject () =
  {
    S.socket_path = Filename.concat dir "vstatd.sock";
    state_dir = dir;
    queue_max = 16;
    workers;
    jobs;
    poison_retries;
    hang_timeout_s;
    state_max_bytes;
    pipeline_seed;
    mc_per_geometry;
    inject;
  }

(* Fork a child that builds its pipeline, serves, and exits when a
   Shutdown request or SIGTERM arrives.  _exit keeps the child from
   re-running the parent's at_exit machinery. *)
let spawn_daemon cfg =
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
        let t = S.create cfg in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> S.stop t));
        S.serve t;
        0
      with e ->
        Printf.eprintf "daemon_chaos: daemon died: %s\n%!"
          (Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid -> pid

let wait_exit pid what =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> die "%s daemon exited with %d" what c
  | _, Unix.WSIGNALED s -> die "%s daemon killed by signal %d" what s
  | _, Unix.WSTOPPED _ -> die "%s daemon stopped" what

(* First contact allows extra connect attempts: the child is still
   building its extraction pipeline before the socket exists. *)
let ping ~socket_path =
  match Client.request ~attempts:14 ~socket_path P.Health with
  | Ok (P.Health_report _) -> ()
  | Ok _ -> die "unexpected response to health ping"
  | Error m -> die "health ping failed: %s" m

let submit ?client ?(job = spec) ~socket_path () =
  match Client.submit ?client ~socket_path ~spec:job ~deadline_s:0.0 () with
  | Ok (P.Accepted { id; _ }) -> id
  | Ok (P.Rejected { reason = P.Bad_request { detail } }) ->
    die "submit rejected: %s" detail
  | Ok _ -> die "unexpected response to submit"
  | Error m -> die "submit failed: %s" m

let fetch ~socket_path ~id =
  match Client.await ~socket_path ~id () with
  | Ok s -> s
  | Error e -> die "await %s failed: %s" id (Client.await_error_to_string e)

let shutdown ~socket_path =
  match Client.request ~socket_path P.Shutdown with
  | Ok P.Shutting_down -> ()
  | Ok _ -> die "unexpected response to shutdown"
  | Error m -> die "shutdown failed: %s" m

(* A [Result] sent on a raw connection and left unread: the daemon parks
   it until the job is terminal. *)
let park_result ~socket_path ~id =
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket_path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 120.0;
  (match P.write_frame fd (P.encode_request (P.Result { id })) with
  | Ok () -> ()
  | Error e -> die "parked Result send failed: %s" (P.error_to_string e));
  fd

let read_parked fd =
  let resp = Result.bind (P.read_frame fd) P.decode_response in
  Unix.close fd;
  match resp with
  | Ok r -> r
  | Error e -> die "parked Result read failed: %s" (P.error_to_string e)

let bits = Int64.bits_of_float

let assert_summary_identical what (a : P.summary) (b : P.summary) =
  if a.P.n <> b.P.n || a.P.completed <> b.P.completed || a.P.failed <> b.P.failed
  then
    die "%s: shape differs (n %d/%d completed %d/%d failed %d/%d)" what a.P.n
      b.P.n a.P.completed b.P.completed a.P.failed b.P.failed;
  let scalar name x y =
    if not (Int64.equal (bits x) (bits y)) then
      die "%s: %s differs (%h vs %h)" what name x y
  in
  scalar "mean" a.P.mean b.P.mean;
  scalar "std" a.P.std b.P.std;
  scalar "ci_lo" a.P.ci_lo b.P.ci_lo;
  scalar "ci_hi" a.P.ci_hi b.P.ci_hi;
  if Array.length a.P.values <> Array.length b.P.values then
    die "%s: value count differs (%d vs %d)" what (Array.length a.P.values)
      (Array.length b.P.values);
  Array.iteri
    (fun i x ->
      if not (Int64.equal (bits x) (bits b.P.values.(i))) then
        die "%s: sample %d differs (%h vs %h)" what i x b.P.values.(i))
    a.P.values

let fresh_dir tag =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "vstat_daemon_chaos_%d_%s" (Unix.getpid ()) tag)
  in
  (* Stale state from a previous run of this drill must not leak in. *)
  (if Sys.file_exists dir then
     Array.iter
       (fun f -> Sys.remove (Filename.concat dir f))
       (Sys.readdir dir));
  Vstat_util.Atomic_io.ensure_dir dir;
  dir

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;

  (* --- golden: uninterrupted, jobs:1, no injection ------------------- *)
  let golden_dir = fresh_dir "golden" in
  let golden_sock = Filename.concat golden_dir "vstatd.sock" in
  let pid = spawn_daemon (config ~dir:golden_dir ~jobs:1 ~inject:None ()) in
  ping ~socket_path:golden_sock;
  let id = submit ~socket_path:golden_sock () in
  let parked = park_result ~socket_path:golden_sock ~id in
  (* The accept loop keeps answering while that Result is parked. *)
  (match Client.request ~socket_path:golden_sock P.Health with
  | Ok (P.Health_report h) ->
    if h.P.finished <> 0 then die "golden job finished before its Result parked"
  | Ok _ -> die "unexpected response to health while a Result is parked"
  | Error m -> die "health while a Result is parked: %s" m);
  let golden = fetch ~socket_path:golden_sock ~id in
  (match read_parked parked with
  | P.Job_result _ as r ->
    if
      not
        (String.equal (P.encode_response r)
           (P.encode_response (P.Job_result golden)))
    then die "parked Result differs from the awaited one"
  | _ -> die "parked Result not answered with the job's result");
  (* A Result parked when the daemon stops gets a typed goodbye. *)
  let long_job = { spec with P.seed = spec.P.seed + 100; n = 10_000 } in
  let parked =
    park_result ~socket_path:golden_sock
      ~id:(submit ~job:long_job ~socket_path:golden_sock ())
  in
  shutdown ~socket_path:golden_sock;
  (match read_parked parked with
  | P.Shutting_down -> ()
  | _ -> die "parked Result not answered Shutting_down at shutdown");
  wait_exit pid "golden";
  if golden.P.partial || golden.P.completed <> spec.P.n || golden.P.failed <> 0
  then
    die "golden run degraded: completed %d/%d failed %d partial %b"
      golden.P.completed spec.P.n golden.P.failed golden.P.partial;
  Printf.printf "daemon_chaos: golden %s: %d samples, mean %h\n%!" id
    golden.P.completed golden.P.mean;
  print_endline
    "daemon_chaos: parked Results answered (result bit-identical to await; \
     Shutting_down at shutdown)";

  (* --- victim: jobs:2, stall-injected, SIGTERM'd mid-run ------------- *)
  let dir = fresh_dir "victim" in
  let sock = Filename.concat dir "vstatd.sock" in
  let inject =
    match FS.parse_spec "0.5:stall:0.02" with
    | Ok c -> Some c
    | Error m -> die "inject spec: %s" m
  in
  let pid = spawn_daemon (config ~dir ~jobs:2 ~inject ()) in
  ping ~socket_path:sock;
  let id' = submit ~socket_path:sock () in
  if not (String.equal id id') then
    die "job id differs across daemons (%s vs %s): content address broken" id
      id';
  (* Poll health until a worker has picked the job up, then strike. *)
  let rec wait_running n =
    if n = 0 then die "victim job never started";
    match Client.request ~socket_path:sock P.Health with
    | Ok (P.Health_report h) ->
      if
        List.exists
          (fun w -> Option.equal String.equal w.P.busy (Some id))
          h.P.workers
      then true
      else if h.P.finished > 0 then false
      else begin
        Unix.sleepf 0.005;
        wait_running (n - 1)
      end
    | Ok _ -> die "unexpected response to health poll"
    | Error m -> die "health poll failed: %s" m
  in
  let struck_mid_run = wait_running 4000 in
  if struck_mid_run then begin
    (* The stalled job cannot finish in 0.3 s: the one blocking wait must
       give up on its own timeout, and promptly. *)
    let t0 = Deadline.now_ns () in
    (match Client.await ~timeout_s:0.3 ~socket_path:sock ~id () with
    | Error (Client.Await_failed _) -> ()
    | Ok _ -> die "victim job finished inside a 0.3 s await"
    | Error e -> die "timed await: %s" (Client.await_error_to_string e));
    let waited = Int64.to_float (Int64.sub (Deadline.now_ns ()) t0) *. 1e-9 in
    if waited > 2.0 then die "await ~timeout_s:0.3 returned after %.2fs" waited;
    Printf.printf "daemon_chaos: victim await timed out after %.2fs\n%!" waited;
    Unix.sleepf 0.1
  end
  else
    (* The stall budget makes this effectively unreachable, but a fast
       finish still exercises the restart-and-re-serve path below. *)
    print_endline "daemon_chaos: victim finished before SIGTERM (cache drill)";
  Unix.kill pid Sys.sigterm;
  wait_exit pid "victim";
  Printf.printf "daemon_chaos: victim SIGTERM'd %s\n%!"
    (if struck_mid_run then "mid-run" else "after finish");

  (* --- restart: jobs:4 on the victim's journal, mixed injection ------ *)
  let inject =
    match FS.parse_spec "0.2:mix:0.01" with
    | Ok c -> Some c
    | Error m -> die "inject spec: %s" m
  in
  let pid = spawn_daemon (config ~dir ~jobs:4 ~inject ()) in
  ping ~socket_path:sock;
  let id'' = submit ~socket_path:sock () in
  if not (String.equal id id'') then
    die "job id changed across restart (%s vs %s)" id id'';
  let resumed = fetch ~socket_path:sock ~id in
  shutdown ~socket_path:sock;
  wait_exit pid "restart";

  assert_summary_identical "restarted vs golden" golden resumed;
  Printf.printf
    "daemon_chaos: restart re-served %s bit-identically (cached=%b, \
     retried=%d)\n%!"
    id resumed.P.cached resumed.P.retried;

  (* --- pool: workers:4, multiple clients, chaos injection ------------ *)
  (* A low-rate chaos mix (quarter stalls, aborts, crashes, hangs) with a
     tight watchdog floor: worker domains are expected to die and freeze
     mid-job, the supervisor to requeue their victims onto replacement
     generations, and every summary to land anyway.  The golden spec
     rides along under its own client so its result can be checked
     bit-for-bit against the uninterrupted phase-1 run. *)
  let dir = fresh_dir "pool" in
  let sock = Filename.concat dir "vstatd.sock" in
  let inject =
    match FS.parse_spec "0.003:chaos:0.005" with
    | Ok c -> Some c
    | Error m -> die "inject spec: %s" m
  in
  (* The watchdog floor is deliberately below the injected hang length
     (0.75 s default) so real hangs are detected; a loaded machine may
     also trip it spuriously, which is safe — requeue is value-neutral —
     so the retry budget is set far above any plausible requeue count. *)
  let pid =
    spawn_daemon
      (config ~workers:4 ~poison_retries:30 ~hang_timeout_s:0.25 ~dir ~jobs:1
         ~inject ())
  in
  ping ~socket_path:sock;
  let others =
    List.init 6 (fun i ->
        let job = { spec with P.seed = spec.P.seed + 1 + i } in
        let client = Printf.sprintf "c%d" (i mod 3) in
        submit ~client ~job ~socket_path:sock ())
  in
  let id_pool = submit ~client:"golden" ~socket_path:sock () in
  if not (String.equal id id_pool) then
    die "job id changed under the pool daemon (%s vs %s)" id id_pool;
  let pooled = fetch ~socket_path:sock ~id:id_pool in
  List.iter (fun jid -> ignore (fetch ~socket_path:sock ~id:jid)) others;
  (match Client.request ~socket_path:sock P.Health with
  | Ok (P.Health_report h) ->
    if List.length h.P.workers <> 4 then
      die "health reports %d workers, want 4" (List.length h.P.workers);
    if h.P.quarantined <> 0 then
      die "pool drill quarantined %d job(s) unexpectedly" h.P.quarantined;
    Printf.printf
      "daemon_chaos: pool survived chaos (requeued=%d crashes=%d hangs=%d \
       finished=%d)\n%!"
      h.P.requeued h.P.worker_crashes h.P.worker_hangs h.P.finished
  | Ok _ -> die "unexpected response to pool health"
  | Error m -> die "pool health failed: %s" m);
  shutdown ~socket_path:sock;
  wait_exit pid "pool";
  assert_summary_identical "pool vs golden" golden pooled;
  Printf.printf "daemon_chaos: pool re-derived %s bit-identically\n%!" id_pool;

  (* --- poison: every sample crashes the worker; expect quarantine ---- *)
  let dir = fresh_dir "poison" in
  let sock = Filename.concat dir "vstatd.sock" in
  let inject =
    match FS.parse_spec "1:crash" with
    | Ok c -> Some c
    | Error m -> die "inject spec: %s" m
  in
  let pid =
    spawn_daemon
      (config ~workers:2 ~poison_retries:3 ~hang_timeout_s:0.25 ~dir ~jobs:1
         ~inject ())
  in
  ping ~socket_path:sock;
  let poison_job = { spec with P.n = 60; P.seed = 77 } in
  let qid = submit ~job:poison_job ~socket_path:sock () in
  (match Client.await ~socket_path:sock ~id:qid () with
  | Error (Client.Await_quarantined { attempts; detail }) ->
    if attempts <> 3 then
      die "poison job quarantined after %d attempts, want 3" attempts;
    Printf.printf "daemon_chaos: poison job quarantined after %d attempts \
                   (%s)\n%!"
      attempts detail
  | Ok _ -> die "poison job finished despite rate-1 crash injection"
  | Error e ->
    die "poison await failed oddly: %s" (Client.await_error_to_string e));
  (* The daemon itself must outlive its poisoned workers. *)
  ping ~socket_path:sock;
  shutdown ~socket_path:sock;
  wait_exit pid "poison";

  (* --- evict: a state budget of ~1.5 snapshots, three finished jobs --- *)
  (* Each finished job leaves one snapshot; with room for only one and a
     half, every later publish evicts the least-recently-finished one.
     Results keep serving from memory after their journal is gone. *)
  let dir = fresh_dir "evict" in
  let sock = Filename.concat dir "vstatd.sock" in
  let small i = { P.kind = P.Idsat; n = 100; seed = 500 + i; vdd = 1.0; retry = 1 } in
  (* 20 bytes per entry (index, attempts, payload length, one float)
     plus a few hundred bytes of identity, bitmap and footer. *)
  let snapshot_bytes = (20 * 100) + 200 in
  let budget = snapshot_bytes * 3 / 2 in
  let pid =
    spawn_daemon
      (config ~state_max_bytes:budget ~dir ~jobs:1 ~inject:None ())
  in
  ping ~socket_path:sock;
  let ids = List.init 3 (fun i -> submit ~job:(small i) ~socket_path:sock ()) in
  let results = List.map (fun id -> (id, fetch ~socket_path:sock ~id)) ids in
  let state_bytes =
    match Client.request ~socket_path:sock P.Health with
    | Ok (P.Health_report h) ->
      if h.P.evicted < 1 then die "evict drill: nothing evicted";
      if h.P.state_bytes > budget then
        die "evict drill: state dir %d bytes over budget %d" h.P.state_bytes
          budget;
      Printf.printf
        "daemon_chaos: evicted %d journal(s), state dir %d bytes (budget %d)\n%!"
        h.P.evicted h.P.state_bytes budget;
      h.P.state_bytes
    | Ok _ -> die "unexpected response to evict health"
    | Error m -> die "evict health failed: %s" m
  in
  let on_disk =
    Array.fold_left
      (fun acc f ->
        if String.equal f "vstatd.sock" then acc
        else if not (Filename.check_suffix f ".ckpt") then
          die "evict drill: stray state file %s" f
        else acc + (Unix.stat (Filename.concat dir f)).Unix.st_size)
      0 (Sys.readdir dir)
  in
  if on_disk <> state_bytes then
    die "evict drill: snapshots hold %d bytes, health reports %d" on_disk
      state_bytes;
  List.iter
    (fun (id, fetched) ->
      match Client.request ~socket_path:sock (P.Result { id }) with
      | Ok r ->
        if
          not
            (String.equal (P.encode_response r)
               (P.encode_response (P.Job_result fetched)))
        then die "evict drill: Result for %s differs from the fetched one" id
      | Error m -> die "evict drill: Result %s failed: %s" id m)
    results;
  shutdown ~socket_path:sock;
  wait_exit pid "evict";

  print_endline "daemon_chaos: PASS"
