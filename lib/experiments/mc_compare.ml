type pair = {
  label : string;
  golden : float array;
  vs : float array;
  ks : float;
  ks_p : float;
  rel_mean_diff : float;
  rel_std_diff : float;
  overlap : float;
}

let log_src =
  Logs.Src.create "vstat.mc_compare"
    ~doc:"Monte Carlo comparison scaffolding"

module Log = (val Logs.src_log log_src : Logs.LOG)

(* The injection config: device-level, so it lives here rather than in
   the runtime's controls.  Set by the CLIs before any sweep runs. *)
let inject = Atomic.make None

let set_inject cfg = Atomic.set inject cfg

let set_default_checkpoint checkpoint =
  let module C = Vstat_runtime.Checkpoint in
  C.set_controls { (C.controls ()) with checkpoint }

(* Injection key for (sample, attempt): injective for < 64 attempts, so
   each retry attempt rolls an independent fault decision while staying a
   pure function of the sample index — jobs-independent. *)
let inject_key ~index ~attempt = (index * 64) + attempt

(* Circuit-engine work attributable to one Monte Carlo run, from snapshots
   of the process-wide counters (exact: workers flush at the end of every
   solve and the pool has joined before [after] is read), rendered as
   [name=value] pairs. *)
let pp_engine_work ppf (d : Vstat_circuit.Engine.counters) =
  Format.fprintf ppf
    " newton=%d model_evals=%d assemblies=%d lu=%d steps=%d rejected=%d \
     bp_hits=%d"
    d.newton_iterations d.model_evaluations d.assemblies d.lu_factorizations
    d.accepted_steps d.rejected_steps d.breakpoint_hits

let sweep ?jobs ?codec ~label ~n ~tech_of_sample ~rng ~measure () =
  let inject = Atomic.get inject in
  (* The injection config changes sample values, so it is part of the run
     identity a resume must match. *)
  let fingerprint =
    match inject with
    | None -> "inject:none"
    | Some cfg ->
      Printf.sprintf "inject:%s:seed=%d"
        (Vstat_device.Fault_inject.spec_to_string cfg)
        cfg.Vstat_device.Fault_inject.seed
  in
  let before = Vstat_circuit.Engine.global_counters () in
  let r =
    Vstat_runtime.Checkpoint.collect ?jobs ~fingerprint ?codec ~label ~rng ~n
      ~f:(fun ~attempt ~index sample_rng ->
        let tech = tech_of_sample ~index sample_rng in
        let tech =
          match inject with
          | None -> tech
          | Some cfg ->
            Vstat_cells.Celltech.with_fault_injection cfg
              ~key:(inject_key ~index ~attempt) tech
        in
        (* Attempt 0 escalates to exactly the defaults, so the plain path
           is untouched; retries re-run the whole measurement under
           progressively more forgiving ambient solver options. *)
        let opts =
          Vstat_circuit.Engine.escalate ~attempt
            Vstat_circuit.Engine.default_options
        in
        Vstat_circuit.Engine.with_options opts (fun () -> measure tech))
      ()
  in
  let after = Vstat_circuit.Engine.global_counters () in
  Log.info (fun m ->
      m "%s:%a" label pp_engine_work
        (Vstat_circuit.Engine.counters_diff after before));
  r

let collect_run ?jobs ?codec ~label ~n ~tech_of_rng ~rng ~measure () =
  sweep ?jobs ?codec ~label ~n
    ~tech_of_sample:(fun ~index:_ rng -> tech_of_rng rng)
    ~rng ~measure ()

let collect_indexed ~codec ~label ~n ~tech_of_sample ~rng ~measure () =
  sweep ~codec ~label ~n ~tech_of_sample ~rng ~measure ()

let summarize ~label golden vs =
  {
    label;
    golden;
    vs;
    ks = Vstat_stats.Compare.ks_statistic golden vs;
    ks_p = Vstat_stats.Compare.ks_p_value golden vs;
    rel_mean_diff = Vstat_stats.Compare.relative_mean_diff vs golden;
    rel_std_diff = Vstat_stats.Compare.relative_std_diff vs golden;
    overlap = Vstat_stats.Compare.density_overlap golden vs;
  }

let run_lists p ~label ~vdd ~n ~seed ~measure =
  (* Measurements here return float lists, so checkpoint persistence is
     available whenever the CLI armed a checkpoint directory. *)
  let collect model tech ~seed =
    Vstat_runtime.Runtime.values
      (collect_run ~codec:Vstat_runtime.Checkpoint.float_list_codec
         ~label:(label ^ "/" ^ model) ~n
         ~tech_of_rng:(fun rng -> tech p ~rng ~vdd)
         ~rng:(Vstat_util.Rng.create ~seed) ~measure ())
  in
  let golden = collect "golden" Vstat_core.Techs.stochastic_bsim ~seed in
  let vs = collect "vs" Vstat_core.Techs.stochastic_vs ~seed:(seed + 1) in
  (label, golden, vs)

let run p ~label ~vdd ~n ~seed ~measure =
  let label, golden, vs =
    run_lists p ~label ~vdd ~n ~seed ~measure:(fun tech -> [ measure tech ])
  in
  summarize ~label (Array.map (fun l -> List.hd l) golden)
    (Array.map (fun l -> List.hd l) vs)

let run_many p ~label ~vdd ~n ~seed ~measure =
  let label, golden, vs = run_lists p ~label ~vdd ~n ~seed ~measure in
  if Array.length golden = 0 then []
  else begin
    let arity = List.length golden.(0) in
    List.init arity (fun k ->
        summarize
          ~label:(Printf.sprintf "%s[%d]" label k)
          (Array.map (fun l -> List.nth l k) golden)
          (Array.map (fun l -> List.nth l k) vs))
  end

let pp_pair ppf t =
  let d = Vstat_stats.Descriptive.mean in
  let s = Vstat_stats.Descriptive.std in
  Format.fprintf ppf "%s:@\n" t.label;
  Format.fprintf ppf "  golden: mean=%.4g std=%.4g  skew=%+.2f@\n" (d t.golden)
    (s t.golden)
    (Vstat_stats.Descriptive.skewness t.golden);
  Format.fprintf ppf "  vs    : mean=%.4g std=%.4g  skew=%+.2f@\n" (d t.vs)
    (s t.vs)
    (Vstat_stats.Descriptive.skewness t.vs);
  Format.fprintf ppf
    "  agreement: |dmean|=%.2f%% |dstd|=%.2f%% KS=%.3f (p=%.2f) overlap=%.3f@\n"
    (100.0 *. t.rel_mean_diff) (100.0 *. t.rel_std_diff) t.ks t.ks_p t.overlap;
  (* The interval half-width scales as 1/sqrt(n): a deadline-degraded
     partial run shows an honestly wider interval here. *)
  if Array.length t.golden >= 2 && Array.length t.vs >= 2 then begin
    let glo, ghi = Vstat_stats.Descriptive.mean_ci t.golden in
    let vlo, vhi = Vstat_stats.Descriptive.mean_ci t.vs in
    Format.fprintf ppf
      "  mean 95%%-CI: golden [%.4g, %.4g] (n=%d)  vs [%.4g, %.4g] (n=%d)@\n"
      glo ghi (Array.length t.golden) vlo vhi (Array.length t.vs)
  end;
  let spark xs =
    Vstat_stats.Histogram.sparkline
      (Array.map snd (Vstat_stats.Histogram.kde ~points:60 xs))
  in
  Format.fprintf ppf "  golden |%s|@\n  vs     |%s|@\n" (spark t.golden)
    (spark t.vs)
