(* vstatd — the variation-analysis daemon.

   Thin CLI shell over Vstat_service.Service: parse and validate flags
   (bad values are usage errors, exit 2), build the service, wire SIGTERM
   and SIGINT to graceful shutdown (the in-flight job drains at a sample
   boundary and flushes its journal), and block in the accept loop. *)

open Cmdliner

let state_dir_t =
  Arg.(
    value & opt string "vstatd-state"
    & info [ "state-dir" ] ~docv:"DIR"
        ~doc:
          "Journal cache directory. Completed runs persist here under \
           their content address; a restarted daemon re-serves them \
           bit-identically and resumes interrupted ones.")

let socket_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Unix-domain listen socket (default: $(b,vstatd.sock) inside \
           --state-dir).")

let queue_max_t =
  Arg.(
    value & opt Cli.positive_int 32
    & info [ "queue-max" ] ~docv:"N"
        ~doc:
          "Admission bound: submissions beyond $(docv) queued jobs are shed \
           with a typed queue-full rejection instead of queueing without \
           bound.")

let jobs_t =
  Arg.(
    value
    & opt (some Cli.positive_int) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains per Monte Carlo job. Results are bit-identical \
           for any value.")

let workers_t =
  Arg.(
    value & opt Cli.positive_int 1
    & info [ "workers" ] ~docv:"N"
        ~doc:
          "Worker-pool width: jobs executed concurrently, each on its own \
           supervised domain. Crashed or hung workers are replaced and \
           their jobs requeued; results are bit-identical for any value.")

let poison_retries_t =
  Arg.(
    value & opt Cli.positive_int 3
    & info [ "poison-retries" ] ~docv:"K"
        ~doc:
          "Rounds a job may crash or hang its worker before it is \
           quarantined with a terminal status instead of being requeued \
           again.")

let hang_timeout_t =
  Arg.(
    value & opt Cli.positive_float 30.0
    & info [ "hang-timeout" ] ~docv:"SEC"
        ~doc:
          "Watchdog floor: a busy worker whose heartbeat is silent this \
           long is declared hung and replaced (the effective budget also \
           scales with the observed per-sample time).")

let state_max_bytes_t =
  Arg.(
    value & opt Cli.nonneg_int 0
    & info [ "state-max-bytes" ] ~docv:"BYTES"
        ~doc:
          "LRU byte budget for --state-dir: least-recently-finished \
           journals are evicted once the directory exceeds $(docv). 0 \
           (default) disables the bound. Queued and running jobs are \
           never evicted.")

let pipeline_seed_t =
  Arg.(
    value & opt int 42
    & info [ "pipeline-seed" ] ~docv:"SEED"
        ~doc:
          "Seed of the statistical-VS extraction pipeline built at \
           startup. Part of every job's cache identity.")

let bpv_samples_t =
  Arg.(
    value & opt Cli.positive_int 300
    & info [ "bpv-samples" ] ~docv:"N"
        ~doc:
          "Golden MC samples per geometry for the startup extraction \
           (larger = slower startup, tighter alphas). Part of every job's \
           cache identity.")

let inject_t =
  let module FI = Vstat_device.Fault_inject.Service in
  Arg.(
    value
    & opt (some (Cli.spec_conv FI.parse_spec FI.spec_to_string)) None
    & info [ "inject" ] ~docv:"RATE[:KIND[:SEC]]"
        ~doc:
          "Service-layer chaos: deterministically stall ($(b,stall)), \
           abort ($(b,abort)), crash ($(b,crash)), or heartbeat-freeze \
           ($(b,hang)) workers at the given rate ($(b,mix) = stalls and \
           aborts, $(b,chaos) = equal quarters of all four). Aborts ride \
           the retry ladder; crashes and hangs exercise the supervisor's \
           requeue path. None changes any sample value, so results stay \
           bit-identical.")

let run verbose state_dir socket queue_max workers jobs poison_retries
    hang_timeout_s state_max_bytes pipeline_seed bpv_samples inject =
  Cli.setup_logs verbose;
  let config =
    {
      Vstat_service.Service.socket_path =
        (match socket with
        | Some p -> p
        | None -> Filename.concat state_dir "vstatd.sock");
      state_dir;
      queue_max;
      workers;
      jobs = Option.value jobs ~default:1;
      poison_retries;
      hang_timeout_s;
      state_max_bytes;
      pipeline_seed;
      mc_per_geometry = bpv_samples;
      inject;
    }
  in
  (* A client that vanishes mid-response must not kill the daemon. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let t = Vstat_service.Service.create config in
  let graceful _ = Vstat_service.Service.stop t in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle graceful);
  Sys.set_signal Sys.sigint (Sys.Signal_handle graceful);
  Vstat_service.Service.serve t

let () =
  let info =
    Cmd.info "vstatd" ~version:"1.0.0"
      ~exits:
        (Cli.exits
           ~failure:
             "when a system call fails, e.g. the socket cannot be bound (a \
              SIGTERM or SIGINT stops the daemon gracefully, with 0)."
           ~usage:"on a bad flag or flag value." ())
      ~doc:
        "Fault-tolerant variation-analysis daemon: bounded admission with \
         client-fair queueing, a supervised worker pool (crash requeue, \
         hung-job watchdog, poison-job quarantine), per-request deadlines \
         with graceful degradation, and a crash-safe journal-backed result \
         cache bounded by an LRU byte budget"
  in
  let term =
    Term.(
      const run $ Cli.verbose_t $ state_dir_t $ socket_t $ queue_max_t
      $ workers_t $ jobs_t $ poison_retries_t $ hang_timeout_t
      $ state_max_bytes_t $ pipeline_seed_t $ bpv_samples_t $ inject_t)
  in
  match Cmd.eval ~catch:false (Cmd.v info term) with
  | exception Unix.Unix_error (e, fn, arg) ->
    Format.eprintf "vstatd: %s(%s): %s@." fn arg (Unix.error_message e);
    exit 1
  | exception e ->
    Format.eprintf "vstatd: internal error: %s@." (Printexc.to_string e);
    exit 125
  | code -> exit (Cli.exit_code code)
