(* vstat — reproduce every table and figure of "Statistical Modeling with
   the Virtual Source MOSFET Model" (DATE 2013) on the synthetic 40 nm node.

   Each subcommand prints the corresponding experiment's rows/series; `all`
   runs the full set.  Sample counts default to fast-but-meaningful values;
   use -n to reach the paper's counts (e.g. 2500 for Fig. 5). *)

let setup_logs verbose =
  Logs.set_reporter (Logs.format_reporter ());
  Logs.set_level (Some (if verbose then Logs.Info else Logs.Warning))

let pipeline samples_per_geometry seed =
  Vstat_core.Pipeline.build ~seed ~mc_per_geometry:samples_per_geometry ()

open Cmdliner

let verbose_t =
  Arg.(value & flag & info [ "v"; "verbose" ] ~doc:"Enable progress logging.")

let positive_int =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 1 -> Ok j
    | Some _ -> Error (`Msg "must be a positive integer (>= 1)")
    | None -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let nonneg_int =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= 0 -> Ok j
    | Some _ -> Error (`Msg "must be a non-negative integer (>= 0)")
    | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let positive_float =
  let parse s =
    match float_of_string_opt s with
    | Some v when Float.is_finite v && v > 0.0 -> Ok v
    | Some _ -> Error (`Msg "must be a finite positive number")
    | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected a number" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let jobs_t =
  Arg.(
    value
    & opt (some positive_int) None
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
  Arg.(
    value & opt positive_int 1
    & info [ "retry" ] ~docv:"ATTEMPTS"
        ~doc:
          "Max attempts per Monte Carlo sample. Failed samples are re-run \
           with escalated solver options on the same RNG substream, so \
           results stay deterministic and jobs-independent. 1 disables \
           retries.")

let deadline_t =
  Arg.(
    value
    & opt (some positive_float) None
    & info [ "deadline" ] ~docv:"SEC"
        ~doc:
          "Wall-clock budget (seconds) for the whole invocation, measured \
           on the monotonic clock. When it expires, the Monte Carlo run in \
           flight stops at a sample boundary, checkpoints (if enabled) and \
           reports a partial result with honestly widened confidence \
           intervals.")

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
    value & opt nonneg_int 100
    & info [ "checkpoint-every" ] ~docv:"N"
        ~doc:
          "Flush a snapshot after every $(docv) newly completed samples (0 \
           = only at run end / interruption).")

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

let inject_fault_t =
  let fault_conv =
    let parse s =
      match Vstat_device.Fault_inject.parse_spec s with
      | Ok cfg -> Ok cfg
      | Error m -> Error (`Msg m)
    in
    let print ppf cfg =
      Format.pp_print_string ppf (Vstat_device.Fault_inject.spec_to_string cfg)
    in
    Arg.conv (parse, print)
  in
  Arg.(
    value
    & opt (some fault_conv) None
    & info [ "inject-fault" ] ~docv:"RATE[:KIND]"
        ~doc:
          "Chaos testing: deterministically inject device-model faults at \
           the given per-sample rate. KIND is one of nan, inf, perturb, \
           raise (default raise). Injection is keyed by sample index and \
           retry attempt, so it is reproducible and independent of --jobs.")

type controls = {
  retry : int;
  inject : Vstat_device.Fault_inject.config option;
  deadline_s : float option;
  ckpt_dir : string option;
  ckpt_every : int;
  resume_dir : string option;
}

let controls_t =
  let mk retry inject deadline_s ckpt_dir ckpt_every resume_dir =
    { retry; inject; deadline_s; ckpt_dir; ckpt_every; resume_dir }
  in
  Term.(
    const mk $ retry_t $ inject_fault_t $ deadline_t $ checkpoint_dir_t
    $ checkpoint_every_t $ resume_t)

let apply_controls c =
  (match (c.ckpt_dir, c.resume_dir) with
  | Some _, Some _ ->
    Format.eprintf
      "--checkpoint-dir and --resume are mutually exclusive (--resume DIR \
       already checkpoints into DIR)@.";
    exit 2
  | _ -> ());
  let checkpoint =
    match (c.resume_dir, c.ckpt_dir) with
    | Some dir, _ ->
      Some
        (Vstat_runtime.Checkpoint.settings ~every:c.ckpt_every ~resume:true
           dir)
    | None, Some dir ->
      Some (Vstat_runtime.Checkpoint.settings ~every:c.ckpt_every dir)
    | None, None -> None
  in
  Vstat_experiments.Mc_compare.set_inject c.inject;
  (* Every Monte Carlo sweep of the invocation, the pipeline build's
     included, runs under these controls. *)
  Vstat_runtime.Checkpoint.set_controls
    {
      retry = Int.max 1 c.retry;
      checkpoint;
      (* One watchdog for the whole process: every subsequent run shares
         the same wall-clock budget (created here, at CLI-parse time — the
         only sanctioned wall-clock use, inside Vstat_runtime.Deadline). *)
      deadline =
        Option.map
          (fun seconds -> Vstat_runtime.Deadline.watchdog ~seconds)
          c.deadline_s;
      signals = [ Sys.sigint; Sys.sigterm ];
    }

(* Validated numeric convs everywhere: a negative -n or zero --bpv-samples
   used to raise Invalid_argument deep inside the runtime (exit 125); bad
   flag values must be a usage error (exit 2) instead.  [min_n] is the
   smallest sample count the command can summarize (a spread needs 2
   samples, a skewness or QQ plot 3). *)
let at_least min_n =
  let parse s =
    match int_of_string_opt s with
    | Some j when j >= min_n -> Ok j
    | Some _ ->
      Error
        (`Msg (Printf.sprintf "must be at least %d for this command" min_n))
    | None ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected an integer" s))
  in
  Arg.conv (parse, Format.pp_print_int)

let samples_t ~min_n default =
  Arg.(
    value & opt (at_least min_n) default
    & info [ "n"; "samples" ] ~docv:"N"
        ~doc:
          (Printf.sprintf
             "Monte Carlo samples per model (paper-scale values are larger; \
              at least %d)."
             min_n))

(* A BPV observation is a spread, so it needs at least 2 golden samples. *)
let geometry_mc_t =
  Arg.(
    value & opt (at_least 2) 2000
    & info [ "bpv-samples" ] ~docv:"N"
        ~doc:
          "Golden MC samples per geometry used for BPV observation (at \
           least 2).")

let std_formatter_flush () = Format.pp_print_flush Format.std_formatter ()

let run_cmd name doc ~default_n ~min_n f =
  let run verbose jobs seed controls bpv_n n =
    setup_logs verbose;
    Option.iter Vstat_runtime.Runtime.set_default_jobs jobs;
    apply_controls controls;
    let p = pipeline bpv_n seed in
    f p ~n ~seed;
    std_formatter_flush ()
  in
  Cmd.v
    (Cmd.info name ~doc)
    Term.(
      const run $ verbose_t $ jobs_t $ seed_t $ controls_t $ geometry_mc_t
      $ samples_t ~min_n default_n)

let fmt = Format.std_formatter

let fig1 p ~n:_ ~seed:_ = Vstat_experiments.Exp_fig1.pp fmt (Vstat_experiments.Exp_fig1.run p)

let fig2 p ~n:_ ~seed:_ = Vstat_experiments.Exp_fig2.pp fmt (Vstat_experiments.Exp_fig2.run p)

let table1 _p ~n:_ ~seed:_ =
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

let table2 p ~n:_ ~seed:_ =
  Vstat_experiments.Exp_table2.pp fmt (Vstat_experiments.Exp_table2.run p)

let fig3 p ~n ~seed = Vstat_experiments.Exp_fig3.pp fmt (Vstat_experiments.Exp_fig3.run ~n ~seed p)

let table3 p ~n ~seed =
  Vstat_experiments.Exp_table3.pp fmt (Vstat_experiments.Exp_table3.run ~n ~seed p)

let fig4 p ~n ~seed = Vstat_experiments.Exp_fig4.pp fmt (Vstat_experiments.Exp_fig4.run ~n ~seed p)

let fig5 p ~n ~seed = Vstat_experiments.Exp_fig5.pp fmt (Vstat_experiments.Exp_fig5.run ~n ~seed p)

let fig6 p ~n ~seed = Vstat_experiments.Exp_fig6.pp fmt (Vstat_experiments.Exp_fig6.run ~n ~seed p)

let fig7 p ~n ~seed = Vstat_experiments.Exp_fig7.pp fmt (Vstat_experiments.Exp_fig7.run ~n ~seed p)

let fig8 p ~n ~seed = Vstat_experiments.Exp_fig8.pp fmt (Vstat_experiments.Exp_fig8.run ~n ~seed p)

let fig9 p ~n ~seed = Vstat_experiments.Exp_fig9.pp fmt (Vstat_experiments.Exp_fig9.run ~n ~seed p)

let table4 p ~n ~seed =
  let t =
    Vstat_experiments.Exp_table4.run ~n_nand2:n ~n_dff:(Int.max 5 (n / 5))
      ~n_sram:n ~seed p
  in
  Vstat_experiments.Exp_table4.pp fmt t;
  Format.fprintf fmt "raw model-eval cost ratio (golden/VS): %.2fx@\n"
    (Vstat_experiments.Exp_table4.model_eval_comparison p)

let ablation_vdd p ~n ~seed =
  Vstat_experiments.Exp_vdd_transfer.pp fmt
    (Vstat_experiments.Exp_vdd_transfer.run ~n ~seed p)

let inter_die p ~n ~seed =
  Vstat_experiments.Exp_inter_die.pp fmt
    (Vstat_experiments.Exp_inter_die.run ~n_dies:(Int.max 4 (n / 8))
       ~per_die:8 ~seed p)

let ssta p ~n ~seed =
  Vstat_experiments.Exp_ssta.pp fmt
    (Vstat_experiments.Exp_ssta.run ~n ~seed p)

let export dir p ~n ~seed =
  let paths = Vstat_experiments.Exp_export.write_all ~dir ~n ~seed p in
  List.iter (fun path -> Format.fprintf fmt "wrote %s@\n" path) paths

let all p ~n ~seed =
  let section title =
    Format.fprintf fmt "@\n=== %s ===@\n" title
  in
  section "Fig.1";  fig1 p ~n ~seed;
  section "Fig.2";  fig2 p ~n ~seed;
  section "Table I"; table1 p ~n ~seed;
  section "Table II"; table2 p ~n ~seed;
  section "Fig.3";  fig3 p ~n:(Int.min n 1500) ~seed;
  section "Table III"; table3 p ~n:(Int.min n 1500) ~seed;
  section "Fig.4";  fig4 p ~n:(Int.min n 1000) ~seed;
  section "Fig.5";  fig5 p ~n:(Int.min n 300) ~seed;
  section "Fig.6";  fig6 p ~n:(Int.min n 400) ~seed;
  section "Fig.7";  fig7 p ~n:(Int.min n 300) ~seed;
  section "Fig.8";  fig8 p ~n:(Int.min n 60) ~seed;
  section "Fig.9";  fig9 p ~n:(Int.min n 400) ~seed;
  section "Table IV"; table4 p ~n:(Int.min n 60) ~seed;
  section "Ablation: Vdd transfer"; ablation_vdd p ~n:(Int.min n 1000) ~seed;
  section "Extension: inter-die"; inter_die p ~n:(Int.min n 120) ~seed;
  section "Extension: SSTA"; ssta p ~n:(Int.min n 150) ~seed

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
      value & opt positive_float 1.0
      & info [ "sigma-shift" ] ~docv:"SCALE"
          ~doc:
            "Sigma multiplier of the importance-sampling proposal around \
             its pilot-derived mean shifts (1.0 = shift only).")
  in
  let pilot_n_t =
    Arg.(
      value
      & opt (some positive_int) None
      & info [ "pilot-n" ] ~docv:"N"
          ~doc:
            "Pilot samples used to aim the IS proposal and to train the \
             blockade classifier (defaults: 200 for IS, max(100, n/20) \
             for blockade).")
  in
  let threshold_t =
    Arg.(
      value & opt positive_float 0.025
      & info [ "tail-threshold" ] ~docv:"VOLT"
          ~doc:"Failure threshold: the cell fails when SNM < $(docv).")
  in
  let vdd_t =
    Arg.(
      value & opt positive_float 0.80
      & info [ "vdd" ] ~docv:"VOLT"
          ~doc:"Supply voltage for the yield question.")
  in
  let run verbose jobs seed controls bpv_n n rare sigma_shift pilot_n
      threshold vdd =
    setup_logs verbose;
    Option.iter Vstat_runtime.Runtime.set_default_jobs jobs;
    apply_controls controls;
    let p = pipeline bpv_n seed in
    let module Y = Vstat_experiments.Exp_sram_yield in
    (match rare with
    | `All ->
      Y.pp fmt
        (Y.run ~n ~seed ~vdd ~threshold ~sigma_shift ?pilot_n p)
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
      Vstat_rare.Blockade.pp fmt r);
    std_formatter_flush ()
  in
  Cmd.v
    (Cmd.info "sram-yield"
       ~doc:
         "Rare-event SRAM yield: P(SNM < threshold) at low Vdd via \
          importance sampling and statistical blockade")
    Term.(
      const run $ verbose_t $ jobs_t $ seed_t $ controls_t $ geometry_mc_t
      $ samples_t ~min_n:2 4000 $ rare_t $ sigma_shift_t $ pilot_n_t
      $ threshold_t $ vdd_t)

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
      value & opt positive_int 3
      & info [ "fanout" ] ~docv:"N" ~doc:"Inverter fanout (kind inv).")
  in
  let submit_n_t =
    Arg.(
      value & opt positive_int 200
      & info [ "n"; "samples" ] ~docv:"N" ~doc:"Monte Carlo samples.")
  in
  let vdd_t =
    Arg.(
      value & opt positive_float 1.0
      & info [ "vdd" ] ~docv:"VOLT" ~doc:"Supply voltage.")
  in
  let submit_deadline_t =
    Arg.(
      value
      & opt (some positive_float) None
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
      value & opt positive_float 600.0
      & info [ "timeout" ] ~docv:"SEC"
          ~doc:
            "Give up waiting for the result after $(docv) seconds. The \
             daemon answers once the job finishes; this bounds that one \
             blocking wait.")
  in
  let run verbose socket kind fanout n seed retry vdd deadline no_wait
      client timeout =
    setup_logs verbose;
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
      std_formatter_flush ()
    | Ok _ ->
      Format.eprintf "vstat submit: unexpected daemon response@.";
      exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit a Monte Carlo job to a running vstatd daemon and wait for \
          the (possibly cached or deadline-degraded) result")
    Term.(
      const run $ verbose_t $ socket_t $ kind_t $ fanout_t $ submit_n_t
      $ seed_t $ retry_t $ vdd_t $ submit_deadline_t $ no_wait_t $ client_t
      $ timeout_t)

let export_cmd =
  let dir_t =
    Arg.(
      value & opt string "csv"
      & info [ "o"; "output" ] ~docv:"DIR" ~doc:"Output directory.")
  in
  let run verbose jobs seed controls bpv_n n dir =
    setup_logs verbose;
    Option.iter Vstat_runtime.Runtime.set_default_jobs jobs;
    apply_controls controls;
    let p = pipeline bpv_n seed in
    export dir p ~n ~seed;
    std_formatter_flush ()
  in
  Cmd.v
    (Cmd.info "export" ~doc:"Export figure data series to CSV files")
    Term.(
      const run $ verbose_t $ jobs_t $ seed_t $ controls_t $ geometry_mc_t
      $ samples_t ~min_n:0 300 $ dir_t)

let cmds =
  [
    export_cmd;
    submit_cmd;
    sram_yield_cmd;
    run_cmd "fig1" "VS-vs-golden I-V fit (Fig. 1)" ~default_n:0 ~min_n:0 fig1;
    run_cmd "fig2" "Per-geometry vs stacked BPV (Fig. 2)" ~default_n:0 ~min_n:0
      fig2;
    run_cmd "table1" "Variation parameter list (Table I)" ~default_n:0
      ~min_n:0 table1;
    run_cmd "table2" "Extracted alpha coefficients (Table II)" ~default_n:0
      ~min_n:0 table2;
    run_cmd "fig3" "Idsat mismatch contributions vs width (Fig. 3)"
      ~default_n:1500 ~min_n:2 fig3;
    run_cmd "table3" "Device MC sigma comparison (Table III)" ~default_n:1500
      ~min_n:2 table3;
    run_cmd "fig4" "Ion/Ioff scatter + confidence ellipses (Fig. 4)"
      ~default_n:1000 ~min_n:3 fig4;
    run_cmd "fig5" "INV FO3 delay PDFs, three sizes (Fig. 5)" ~default_n:400
      ~min_n:3 fig5;
    run_cmd "fig6" "Leakage vs frequency scatter (Fig. 6)" ~default_n:600
      ~min_n:3 fig6;
    run_cmd "fig7" "NAND2 delay vs Vdd + QQ plots (Fig. 7)" ~default_n:400
      ~min_n:3 fig7;
    run_cmd "fig8" "DFF setup-time distribution (Fig. 8)" ~default_n:120
      ~min_n:3 fig8;
    run_cmd "fig9" "SRAM butterfly + SNM distributions (Fig. 9)"
      ~default_n:500 ~min_n:3 fig9;
    run_cmd "table4" "Runtime/memory comparison (Table IV)" ~default_n:100
      ~min_n:0 table4;
    run_cmd "ablation-vdd"
      "Ablation: nominal-Vdd extraction reused at low Vdd" ~default_n:1500
      ~min_n:2 ablation_vdd;
    run_cmd "inter-die" "Extension: inter-die + within-die variation (eq. 1)"
      ~default_n:160 ~min_n:0 inter_die;
    run_cmd "ssta" "Extension: Gaussian SSTA vs transistor-level MC"
      ~default_n:300 ~min_n:3 ssta;
    run_cmd "all" "Run every experiment at reduced sample counts"
      ~default_n:1000 ~min_n:3 all;
  ]

let () =
  let info =
    Cmd.info "vstat" ~version:"1.0.0"
      ~doc:
        "Statistical Virtual Source MOSFET model: reproduction of the DATE \
         2013 experiments"
  in
  match Cmd.eval ~catch:false (Cmd.group info cmds) with
  | exception Vstat_runtime.Checkpoint.Interrupted
      { label; signal; completed; n; snapshot } ->
    std_formatter_flush ();
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
    std_formatter_flush ();
    Format.eprintf
      "vstat: %s: only %d/%d samples completed, at least %d needed@."
      label completed n needed;
    exit 1
  | exception Vstat_runtime.Journal.Rejected e ->
    Format.eprintf "vstat: cannot resume: %s@."
      (Vstat_runtime.Journal.error_to_string e);
    exit 2
  | exception e ->
    Format.eprintf "vstat: internal error: %s@." (Printexc.to_string e);
    exit 125
  | code ->
    (* cmdliner reports CLI parse/validation errors as its own 124; the
       documented contract here is exit code 2 for bad flags. *)
    exit (if code = Cmd.Exit.cli_error then 2 else code)
