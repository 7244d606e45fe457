(* vstat — reproduce every table and figure of "Statistical Modeling with
   the Virtual Source MOSFET Model" (DATE 2013) on the synthetic 40 nm node.

   Each subcommand prints the corresponding experiment's rows/series; `all`
   runs the full set.  Sample counts default to fast-but-meaningful values;
   use -n to reach the paper's counts (e.g. 2500 for Fig. 5). *)

open Cmdliner
module X = Vstat_experiments

let fmt = Format.std_formatter

let jobs_t =
  Arg.(
    value
    & opt (some Cli.positive_int) None
    & info [ "j"; "jobs" ] ~docv:"JOBS"
        ~doc:
          "Worker domains for Monte Carlo sampling (Vstat_runtime). Defaults \
           to $(b,VSTAT_JOBS) from the environment, else the machine's \
           recommended domain count. Results are bit-identical for any \
           value.")

let seed_t =
  Arg.(
    value & opt int 42
    & info [ "seed" ] ~docv:"SEED" ~doc:"Master random seed.")

let retry_t =
  Cli.retry_t
    ~doc:
      "Max attempts per Monte Carlo sample. Failed samples are re-run with \
       escalated solver options on the same RNG substream, so results stay \
       deterministic and jobs-independent. 1 disables retries."

let checkpoint_dir_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR"
        ~doc:
          "Journal completed Monte Carlo samples into $(docv) (one .ckpt \
           snapshot per run label), written atomically so a crash never \
           leaves a torn file. Use $(b,--resume) to continue from them.")

let checkpoint_every_t =
  Arg.(
    value & opt Cli.nonneg_int 100
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Flush a snapshot once at least $(docv) samples have completed \
           since the last flush (0 = only at run end / interruption). Past \
           8*$(docv) samples the interval grows to 1/8 of the samples \
           done, so a long run makes few flushes and a crash loses less \
           than 1/8 of its work.")

let resume_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "resume" ] ~docv:"DIR"
        ~doc:
          "Resume from snapshots in $(docv) (implies \
           $(b,--checkpoint-dir) $(docv)). Snapshots are verified against \
           the run identity (label, seed, sample count, retry depth, \
           injection config); a mismatched or corrupt snapshot aborts with \
           a typed error. Only incomplete sample indices are re-run, on \
           their original RNG substreams: the resumed result is \
           bit-identical to an uninterrupted run.")

(* The run controls as one term.  It yields their application as a
   function, run by the set-up below once every flag has parsed. *)
let controls_t =
  let inject_fault_t =
    Cli.inject_fault_t
      ~doc:
        "Chaos testing: deterministically inject device-model faults at the \
         given per-sample rate. KIND is one of nan, inf, perturb, raise \
         (default raise). Injection is keyed by sample index and retry \
         attempt, so it is reproducible and independent of --jobs."
  in
  let deadline_t =
    Cli.deadline_t
      ~doc:
        "Wall-clock budget (seconds) for the whole invocation, measured on \
         the monotonic clock. When it expires, the Monte Carlo sweep in \
         flight stops at a sample boundary and keeps the samples it \
         finished (checkpointed, if enabled). A sweep left with fewer \
         samples than it needs (at least 2) exits 1 naming itself; every \
         sweep that starts after the budget is spent is one of them."
  in
  let apply retry inject deadline_s ckpt_dir every resume_dir () =
    let checkpoint =
      match (ckpt_dir, resume_dir) with
      | Some _, Some _ ->
        Format.eprintf
          "--checkpoint-dir and --resume are mutually exclusive (--resume \
           DIR already checkpoints into DIR)@.";
        exit 2
      | None, Some dir ->
        Some (Vstat_runtime.Checkpoint.settings ~every ~resume:true dir)
      | Some dir, None -> Some (Vstat_runtime.Checkpoint.settings ~every dir)
      | None, None -> None
    in
    X.Mc_compare.set_inject inject;
    (* Every Monte Carlo sweep of the invocation, the pipeline build's
       included, runs under these controls. *)
    Vstat_runtime.Checkpoint.set_controls
      {
        retry;
        checkpoint;
        (* One watchdog for the whole process: every subsequent run shares
           the same wall-clock budget (created here, once the command line
           has parsed — the only sanctioned wall-clock use, inside
           Vstat_runtime.Deadline). *)
        deadline =
          Option.map
            (fun seconds -> Vstat_runtime.Deadline.watchdog ~seconds)
            deadline_s;
        signals = [ Sys.sigint; Sys.sigterm ];
      }
  in
  Term.(
    const apply $ retry_t $ inject_fault_t $ deadline_t $ checkpoint_dir_t
    $ checkpoint_every_t $ resume_t)

let samples_t ~min_n default =
  Arg.(
    value & opt (Cli.at_least min_n) default
    & info [ "n"; "samples" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Monte Carlo samples per model (paper-scale values are larger; \
              at least %d)."
             min_n))

(* A BPV observation is a spread, so it needs at least 2 golden samples. *)
let geometry_mc_t =
  Arg.(
    value & opt (Cli.at_least 2) 2000
    & info [ "bpv-samples" ] ~docv:"N"
        ~doc:
          "Golden MC samples per geometry used for BPV observation (at \
           least 2).")

(* The set-up every pipeline command shares: logs, --jobs and the run
   controls, then the pipeline build.  The term yields it as a function,
   so nothing starts until every flag of the command has parsed: a bad -n
   exits 2 before any build. *)
let setup_t =
  let setup verbose jobs seed apply_controls bpv_n () =
    Cli.setup_logs verbose;
    Option.iter Vstat_runtime.Runtime.set_default_jobs jobs;
    apply_controls ();
    (Vstat_core.Pipeline.build ~seed ~mc_per_geometry:bpv_n (), seed)
  in
  Term.(
    const setup $ Cli.verbose_t $ jobs_t $ seed_t $ controls_t
    $ geometry_mc_t)

let exits =
  Cli.exits
    ~failure:
      "when a sweep ends with fewer samples than it needs (see $(b,--deadline)) \
       or a checkpoint cannot be written."
    ~usage:"on a bad flag or flag value, or a checkpoint that cannot be resumed."
    ~interrupted:
      "when SIGINT or SIGTERM stops a sweep: 128 + the signal number (130 or \
       143)."
    ()

(* A command that runs [body] on the built pipeline with its -n and
   --seed. *)
let pipeline_cmd name doc ~default_n ~min_n body =
  let run setup n f =
    let p, seed = setup () in
    f p ~n ~seed;
    Format.pp_print_flush fmt ()
  in
  Cmd.v (Cmd.info name ~doc ~exits)
    Term.(const run $ setup_t $ samples_t ~min_n default_n $ body)

(* The paper's experiments, each declared once: its subcommand, its
   section in `all` (in this order) and the sample count `all` caps it
   at. *)
type experiment = {
  name : string;
  doc : string;
  title : string;
  default_n : int;
  min_n : int;
  cap : int;
  print : Vstat_core.Pipeline.t -> n:int -> seed:int -> unit;
}

(* An experiment that draws no samples of its own: -n defaults to 0 and
   is ignored. *)
let fixed name doc title print =
  { name; doc; title; default_n = 0; min_n = 0; cap = 0;
    print = (fun p ~n:_ ~seed:_ -> print p) }

let table1 _ =
  Format.fprintf fmt
    "Table I: VS model parameters used for statistical modeling@\n";
  Vstat_util.Floatx.pp_table fmt
    ~header:[ "source"; "parameter"; "description" ]
    ~rows:
      [
        [ "LER"; "Leff (nm)"; "effective channel length" ];
        [ "LER"; "Weff (nm)"; "effective channel width" ];
        [ "RDF"; "VT0 (V)"; "zero-bias threshold voltage" ];
        [ "OTF"; "Cinv (uF/cm2)"; "effective gate-to-channel capacitance" ];
        [ "Stress"; "mu (cm2/V.s)"; "carrier mobility" ];
        [ "Stress"; "vxo (cm/s)";
          "virtual source velocity (slaved to mu and DIBL, eq. 5)" ];
      ]

let experiments =
  [
    fixed "fig1" "VS-vs-golden I-V fit (Fig. 1)" "Fig.1" (fun p ->
        X.Exp_fig1.(pp fmt (run p)));
    fixed "fig2" "Per-geometry vs stacked BPV (Fig. 2)" "Fig.2" (fun p ->
        X.Exp_fig2.(pp fmt (run p)));
    fixed "table1" "Variation parameter list (Table I)" "Table I" table1;
    fixed "table2" "Extracted alpha coefficients (Table II)" "Table II"
      (fun p -> X.Exp_table2.(pp fmt (run p)));
    { name = "fig3"; doc = "Idsat mismatch contributions vs width (Fig. 3)";
      title = "Fig.3"; default_n = 1500; min_n = 2; cap = 1500;
      print = (fun p ~n ~seed -> X.Exp_fig3.(pp fmt (run ~n ~seed p))) };
    { name = "table3"; doc = "Device MC sigma comparison (Table III)";
      title = "Table III"; default_n = 1500; min_n = 2; cap = 1500;
      print = (fun p ~n ~seed -> X.Exp_table3.(pp fmt (run ~n ~seed p))) };
    { name = "fig4"; doc = "Ion/Ioff scatter + confidence ellipses (Fig. 4)";
      title = "Fig.4"; default_n = 1000; min_n = 3; cap = 1000;
      print = (fun p ~n ~seed -> X.Exp_fig4.(pp fmt (run ~n ~seed p))) };
    { name = "fig5"; doc = "INV FO3 delay PDFs, three sizes (Fig. 5)";
      title = "Fig.5"; default_n = 400; min_n = 3; cap = 300;
      print = (fun p ~n ~seed -> X.Exp_fig5.(pp fmt (run ~n ~seed p))) };
    { name = "fig6"; doc = "Leakage vs frequency scatter (Fig. 6)";
      title = "Fig.6"; default_n = 600; min_n = 3; cap = 400;
      print = (fun p ~n ~seed -> X.Exp_fig6.(pp fmt (run ~n ~seed p))) };
    { name = "fig7"; doc = "NAND2 delay vs Vdd + QQ plots (Fig. 7)";
      title = "Fig.7"; default_n = 400; min_n = 3; cap = 300;
      print = (fun p ~n ~seed -> X.Exp_fig7.(pp fmt (run ~n ~seed p))) };
    { name = "fig8"; doc = "DFF setup-time distribution (Fig. 8)";
      title = "Fig.8"; default_n = 120; min_n = 3; cap = 60;
      print = (fun p ~n ~seed -> X.Exp_fig8.(pp fmt (run ~n ~seed p))) };
    { name = "fig9"; doc = "SRAM butterfly + SNM distributions (Fig. 9)";
      title = "Fig.9"; default_n = 500; min_n = 3; cap = 400;
      print = (fun p ~n ~seed -> X.Exp_fig9.(pp fmt (run ~n ~seed p))) };
    { name = "table4"; doc = "Runtime/memory comparison (Table IV)";
      title = "Table IV"; default_n = 100; min_n = 0; cap = 60;
      print =
        (fun p ~n ~seed ->
          X.Exp_table4.(
            pp fmt
              (run ~n_nand2:n ~n_dff:(Int.max 5 (n / 5)) ~n_sram:n ~seed p);
            Format.fprintf fmt
              "raw model-eval cost ratio (golden/VS): %.2fx@\n"
              (model_eval_comparison p))) };
    { name = "ablation-vdd";
      doc = "Ablation: nominal-Vdd extraction reused at low Vdd";
      title = "Ablation: Vdd transfer"; default_n = 1500; min_n = 2;
      cap = 1000;
      print =
        (fun p ~n ~seed -> X.Exp_vdd_transfer.(pp fmt (run ~n ~seed p))) };
    { name = "inter-die";
      doc = "Extension: inter-die + within-die variation (eq. 1)";
      title = "Extension: inter-die"; default_n = 160; min_n = 0; cap = 120;
      print =
        (fun p ~n ~seed ->
          X.Exp_inter_die.(
            pp fmt (run ~n_dies:(Int.max 4 (n / 8)) ~per_die:8 ~seed p))) };
    { name = "ssta"; doc = "Extension: Gaussian SSTA vs transistor-level MC";
      title = "Extension: SSTA"; default_n = 300; min_n = 3; cap = 150;
      print = (fun p ~n ~seed -> X.Exp_ssta.(pp fmt (run ~n ~seed p))) };
  ]

let all_cmd =
  let all p ~n ~seed =
    List.iter
      (fun e ->
        Format.fprintf fmt "@\n=== %s ===@\n" e.title;
        e.print p ~n:(Int.min n e.cap) ~seed)
      experiments
  in
  pipeline_cmd "all" "Run every experiment at reduced sample counts"
    ~default_n:1000 ~min_n:3 (Term.const all)

let sram_yield_cmd =
  let rare_t =
    Arg.(
      value
      & opt (enum [ ("is", `Is); ("blockade", `Blockade); ("all", `All) ]) `All
      & info [ "rare" ] ~docv:"ESTIMATOR"
          ~doc:
            "Rare-event estimator: $(b,is) (importance sampling under a \
             pilot-aimed defensive mixture proposal), $(b,blockade) \
             (classifier-filtered Monte Carlo), or $(b,all) (both, \
             cross-validated against a brute-force golden run).")
  in
  let sigma_shift_t =
    Arg.(
      value & opt Cli.positive_float 1.0
      & info [ "sigma-shift" ] ~docv:"SCALE"
          ~doc:
            "Sigma multiplier of the importance-sampling proposal around \
             its pilot-derived mean shifts (1.0 = shift only).")
  in
  let pilot_n_t =
    Arg.(
      value
      & opt (some Cli.positive_int) None
      & info [ "pilot-n" ] ~docv:"N"
          ~doc:
            "Pilot samples used to aim the IS proposal and to train the \
             blockade classifier (defaults: 200 for IS, max(100, n/20) \
             for blockade).")
  in
  let threshold_t =
    Arg.(
      value & opt Cli.positive_float 0.025
      & info [ "tail-threshold" ] ~docv:"VOLT"
          ~doc:"Failure threshold: the cell fails when SNM < $(docv).")
  in
  let vdd_t =
    Arg.(
      value & opt Cli.positive_float 0.80
      & info [ "vdd" ] ~docv:"VOLT"
          ~doc:"Supply voltage for the yield question.")
  in
  let sram_yield rare sigma_shift pilot_n threshold vdd p ~n ~seed =
    let module Y = X.Exp_sram_yield in
    match rare with
    | `All ->
      Y.pp fmt (Y.run ~n ~seed ~vdd ~threshold ~sigma_shift ?pilot_n p)
    | `Is ->
      let r =
        Y.estimate_is ~n ~seed ~vdd ~threshold ~sigma_shift ?pilot_n p
      in
      Vstat_rare.Importance.pp fmt r;
      Format.fprintf fmt
        "  plain-MC samples for this interval width: %.0f (%.1fx speedup)@\n"
        (Vstat_rare.Importance.mc_equivalent_samples r)
        (Vstat_rare.Importance.mc_equivalent_samples r /. Float.of_int r.n)
    | `Blockade ->
      let r = Y.estimate_blockade ~n ~seed ~vdd ~threshold ?pilot_n p in
      Vstat_rare.Blockade.pp fmt r
  in
  pipeline_cmd "sram-yield"
    "Rare-event SRAM yield: P(SNM < threshold) at low Vdd via importance \
     sampling and statistical blockade"
    ~default_n:4000 ~min_n:2
    Term.(
      const sram_yield $ rare_t $ sigma_shift_t $ pilot_n_t $ threshold_t
      $ vdd_t)

let export_cmd =
  let dir_t =
    Arg.(
      value & opt string "csv"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let export dir p ~n ~seed =
    List.iter
      (fun path -> Format.fprintf fmt "wrote %s@\n" path)
      (X.Exp_export.write_all ~dir ~n ~seed p)
  in
  pipeline_cmd "export" "Export figure data series to CSV files"
    ~default_n:300 ~min_n:0
    Term.(const export $ dir_t)

let submit_cmd =
  let module P = Vstat_service.Protocol in
  let socket_t =
    Arg.(
      value
      & opt string (Filename.concat "vstatd-state" "vstatd.sock")
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Unix-domain socket the vstatd daemon listens on.")
  in
  let kind_t =
    Arg.(
      value
      & opt
          (enum
             [
               ("inv", `Inv);
               ("snm-read", `SnmRead);
               ("snm-hold", `SnmHold);
               ("idsat", `Idsat);
             ])
          `Inv
      & info [ "kind" ] ~docv:"KIND"
          ~doc:
            "Job kind: $(b,inv) (FO-N inverter delay), $(b,snm-read) / \
             $(b,snm-hold) (6T SRAM static noise margin), $(b,idsat) \
             (NMOS on-current draw).")
  in
  let fanout_t =
    Arg.(
      value & opt Cli.positive_int 3
      & info [ "fanout" ] ~docv:"N" ~doc:"Inverter fanout (kind inv).")
  in
  let submit_n_t =
    Arg.(
      value & opt Cli.positive_int 200
      & info [ "n"; "samples" ] ~docv:"N" ~doc:"Monte Carlo samples.")
  in
  let vdd_t =
    Arg.(
      value & opt Cli.positive_float 1.0
      & info [ "vdd" ] ~docv:"VOLT" ~doc:"Supply voltage.")
  in
  let submit_deadline_t =
    Arg.(
      value
      & opt (some Cli.positive_float) None
      & info [ "deadline" ] ~docv:"SEC"
          ~doc:
            "Per-request deadline, anchored at submission. The daemon sheds \
             the request up front if its backlog estimate already exceeds \
             the budget, and otherwise returns a partial result (fewer \
             samples, honestly wider confidence interval) when the budget \
             expires mid-run.")
  in
  let no_wait_t =
    Arg.(
      value & flag
      & info [ "no-wait" ]
          ~doc:"Print the job id after admission and exit without waiting \
                for the result.")
  in
  let client_t =
    Arg.(
      value & opt string "default"
      & info [ "client" ] ~docv:"ID"
          ~doc:
            "Fairness identity: the daemon serves queued jobs round-robin \
             across client ids, so a flooding client delays only itself. \
             Does not affect the job's cache identity.")
  in
  let timeout_t =
    Arg.(
      value & opt Cli.positive_float 600.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Give up waiting for the result after $(docv) seconds. The \
             daemon answers once the job finishes; this bounds that one \
             blocking wait.")
  in
  let run verbose socket kind fanout n seed retry vdd deadline no_wait
      client timeout =
    Cli.setup_logs verbose;
    let kind =
      match kind with
      | `Inv -> P.Inverter_tpd { fanout }
      | `SnmRead -> P.Sram_snm { read = true }
      | `SnmHold -> P.Sram_snm { read = false }
      | `Idsat -> P.Idsat
    in
    let spec = { P.kind; n; seed; vdd; retry } in
    let deadline_s = Option.value deadline ~default:0.0 in
    let reason_line = function
      | P.Queue_full { queued; queue_max } ->
        Printf.sprintf "queue full (%d/%d jobs)" queued queue_max
      | P.Over_deadline { estimated_wait_s; deadline_s } ->
        Printf.sprintf
          "over deadline (estimated backlog %.2fs > budget %.2fs)"
          estimated_wait_s deadline_s
      | P.Bad_request { detail } -> "bad request: " ^ detail
    in
    match
      Vstat_service.Client.submit ~seed ~client ~socket_path:socket ~spec
        ~deadline_s ()
    with
    | Error msg ->
      Format.eprintf "vstat submit: %s@." msg;
      exit 1
    | Ok (P.Rejected { reason }) ->
      Format.eprintf "vstat submit: rejected: %s@." (reason_line reason);
      exit 3
    | Ok (P.Accepted { id; cached }) ->
      Format.printf "job %s%s@." id (if cached then " (cached)" else "");
      if not no_wait then begin
        match
          Vstat_service.Client.await ~seed ~timeout_s:timeout
            ~socket_path:socket ~id ()
        with
        | Error (Vstat_service.Client.Await_quarantined _ as e) ->
          (* Terminal daemon-side verdict, distinct from transport
             trouble: the job is poisoned, resubmitting will not help. *)
          Format.eprintf "vstat submit: job %s %s@." id
            (Vstat_service.Client.await_error_to_string e);
          exit 4
        | Error e ->
          Format.eprintf "vstat submit: %s@."
            (Vstat_service.Client.await_error_to_string e);
          exit 1
        | Ok s ->
          Format.printf
            "%s: %s%s  n=%d/%d  failed=%d  retried=%d  wall=%.3fs@."
            s.P.id s.P.cause
            (if s.P.cached then " (cached)" else "")
            s.P.completed s.P.n s.P.failed s.P.retried s.P.wall_s;
          Format.printf "mean=%.6g  std=%.6g  95%%-CI=[%.6g, %.6g]@." s.P.mean
            s.P.std s.P.ci_lo s.P.ci_hi;
          if s.P.partial then
            Format.printf
              "(partial: %d of %d samples — interval honestly widened)@."
              s.P.completed s.P.n
      end;
      Format.pp_print_flush fmt ()
    | Ok _ ->
      Format.eprintf "vstat submit: unexpected daemon response@.";
      exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~exits:
         (Cli.exits
            ~failure:
              "when the daemon cannot be reached or $(b,--timeout) expires."
            ~usage:"on a bad flag or flag value." ()
         @ Cmd.Exit.
             [
               info 3 ~doc:"when the daemon rejects the job (queue or deadline).";
               info 4 ~doc:"when the daemon quarantined the job as poison.";
             ])
       ~doc:
         "Submit a Monte Carlo job to a running vstatd daemon and wait for \
          the (possibly cached or deadline-degraded) result")
    Term.(
      const run $ Cli.verbose_t $ socket_t $ kind_t $ fanout_t $ submit_n_t
      $ seed_t $ retry_t $ vdd_t $ submit_deadline_t $ no_wait_t $ client_t
      $ timeout_t)

let cmds =
  export_cmd :: submit_cmd :: sram_yield_cmd
  :: List.map
       (fun e ->
         pipeline_cmd e.name e.doc ~default_n:e.default_n ~min_n:e.min_n
           (Term.const e.print))
       experiments
  @ [ all_cmd ]

let () =
  let info =
    Cmd.info "vstat" ~version:"1.0.0" ~exits
      ~doc:
        "Statistical Virtual Source MOSFET model: reproduction of the DATE \
         2013 experiments"
  in
  match Cmd.eval ~catch:false (Cmd.group info cmds) with
  | exception Vstat_runtime.Checkpoint.Interrupted
      { label; signal; completed; n; snapshot } ->
    Format.pp_print_flush fmt ();
    let signal = Vstat_runtime.Checkpoint.os_signal_number signal in
    Format.eprintf
      "vstat: interrupted by signal %d during %s: %d/%d samples safe%s@."
      signal label completed n
      (match snapshot with
      | Some path -> ", snapshot at " ^ path ^ " (re-run with --resume)"
      | None -> " (no --checkpoint-dir, progress not persisted)");
    exit (128 + signal)
  | exception Vstat_runtime.Checkpoint.Too_few_samples
      { label; completed; needed; n } ->
    Format.pp_print_flush fmt ();
    Format.eprintf
      "vstat: %s: only %d/%d samples completed, at least %d needed@."
      label completed n needed;
    exit 1
  | exception Vstat_runtime.Journal.Rejected (Vstat_runtime.Journal.Io _ as e)
    ->
    Format.pp_print_flush fmt ();
    Format.eprintf "vstat: cannot checkpoint: %s@."
      (Vstat_runtime.Journal.error_to_string e);
    exit 1
  | exception Vstat_runtime.Journal.Rejected e ->
    Format.eprintf "vstat: cannot resume: %s@."
      (Vstat_runtime.Journal.error_to_string e);
    exit 2
  | exception e ->
    Format.eprintf "vstat: internal error: %s@." (Printexc.to_string e);
    exit 125
  | code -> exit (Cli.exit_code code)
