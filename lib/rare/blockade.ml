module C = Vstat_runtime.Checkpoint
module R = Vstat_runtime.Runtime

let log_src =
  Logs.Src.create "vstat.rare.blockade" ~doc:"Statistical blockade estimator"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  label : string;
  n_requested : int;
  n : int;
  n_pilot : int;
  n_simulated : int;
  n_hits : int;
  p_hat : float;
  ci_lo : float;
  ci_hi : float;
  cutoff : float;
  margin : float;
  classifier : Classifier.t;
  residual_std : float;
  pilot_metrics : float array;
  stats : R.stats;
  complete : bool;
}

let margin = 0.90

let estimate ?pilot_n ~(problem : Problem.t) ~rng ~n () =
  if n < 2 then
    invalid_arg
      (Printf.sprintf "Blockade.estimate: need at least 2 samples, got %d" n);
  let dim = problem.Problem.dim in
  let pilot_n =
    match pilot_n with Some p -> p | None -> Int.max 100 (n / 20)
  in
  (* The OLS fit needs dim+1 coefficients plus residual headroom. *)
  if pilot_n < dim + 2 then
    invalid_arg
      (Printf.sprintf
         "Blockade.estimate: pilot of %d cannot train a %d-coefficient \
          classifier (need at least %d)"
         pilot_n (dim + 1) (dim + 2));
  let proposal = Proposal.standard ~dim in
  let base_fingerprint = Problem.fingerprint problem in
  (* Two deterministic substream families derived from the caller's RNG:
     one draw each, in a fixed order, exactly as two consecutive
     Checkpoint.collect calls consume them. *)
  let pilot_label = problem.Problem.label ^ "-blockade-pilot" in
  let main_label = problem.Problem.label ^ "-blockade-main" in

  (* --- phase 1: pilot --------------------------------------------------- *)
  let pilot_r =
    C.collect ~min_ok:(dim + 2)
      ~fingerprint:(base_fingerprint ^ "|phase:pilot")
      ~codec:C.float_array_codec ~label:pilot_label ~rng ~n:pilot_n
      ~f:(fun ~attempt ~index:_ sample_rng ->
        let z = Proposal.draw proposal sample_rng in
        let metric = problem.Problem.simulate ~attempt z in
        Array.append [| metric |] z)
      ()
  in
  let pilot_rows = R.values pilot_r in
  let pilot_metrics = Array.map (fun row -> row.(0)) pilot_rows in
  let pilot_zs = Array.map (fun row -> Array.sub row 1 dim) pilot_rows in
  let classifier = Classifier.fit ~zs:pilot_zs ~metrics:pilot_metrics in
  let residual_std =
    Classifier.residual_std classifier ~zs:pilot_zs ~metrics:pilot_metrics
  in
  (* Blockade cutoff: the pilot quantile at the margin, buffered by one
     residual sigma on the safe side.  Everything the classifier predicts
     past the cutoff gets a real simulation. *)
  let cutoff =
    match problem.Problem.tail with
    | Problem.Lower ->
      Vstat_stats.Descriptive.quantile pilot_metrics (1.0 -. margin)
      +. residual_std
    | Problem.Upper ->
      Vstat_stats.Descriptive.quantile pilot_metrics margin -. residual_std
  in
  let is_candidate predicted =
    match problem.Problem.tail with
    | Problem.Lower -> predicted < cutoff
    | Problem.Upper -> predicted > cutoff
  in

  (* --- phase 2: blockade-filtered main run ------------------------------ *)
  let main_fingerprint =
    String.concat "|"
      [
        base_fingerprint;
        "phase:main";
        "classifier:" ^ Classifier.fingerprint classifier;
        Printf.sprintf "cutoff:%.17g" cutoff;
        Printf.sprintf "margin:%.17g" margin;
      ]
  in
  let main_r =
    C.collect ~fingerprint:main_fingerprint
      ~codec:C.float_triple_codec ~label:main_label ~rng ~n
      ~f:(fun ~attempt ~index:_ sample_rng ->
        let z = Proposal.draw proposal sample_rng in
        let predicted = Classifier.predict classifier z in
        if is_candidate predicted then
          let metric = problem.Problem.simulate ~attempt z in
          (predicted, 1.0, metric)
        else (predicted, 0.0, Float.nan))
      ()
  in
  let rows = R.values main_r in
  let n_ok = Array.length rows in
  let n_simulated = ref 0 and n_hits = ref 0 in
  Array.iter
    (fun (_, simulated, metric) ->
      if simulated > 0.5 then begin
        incr n_simulated;
        if Problem.fails problem metric then incr n_hits
      end)
    rows;
  let k = !n_hits in
  let ci_lo, ci_hi = Vstat_stats.Histogram.wilson_interval ~k n_ok in
  let result =
    {
      label = main_label;
      n_requested = n;
      n = n_ok;
      n_pilot = Array.length pilot_rows;
      n_simulated = !n_simulated;
      n_hits = k;
      p_hat = Float.of_int k /. Float.of_int n_ok;
      ci_lo;
      ci_hi;
      cutoff;
      margin;
      classifier;
      residual_std;
      pilot_metrics;
      stats = main_r.R.stats;
      complete =
        Array.length pilot_r.R.cells = pilot_n
        && Array.length main_r.R.cells = n;
    }
  in
  Log.info (fun m ->
      m "%s: p=%.3e [%.3e, %.3e] hits=%d sims=%d+%d/%d cutoff=%.4g" main_label
        result.p_hat ci_lo ci_hi k result.n_pilot result.n_simulated n_ok
        cutoff);
  result

let simulation_fraction r =
  Float.of_int (r.n_pilot + r.n_simulated) /. Float.of_int (r.n_pilot + r.n)

let pp ppf r =
  Format.fprintf ppf
    "%s: n=%d (%d requested%s) pilot=%d candidates=%d hits=%d@\n\
    \  p_hat = %.4e  [%.4e, %.4e] (95%% Wilson)@\n\
    \  cutoff = %.4g (margin %.2f, residual sigma %.3g)  full sims = %.1f%% \
     of plain MC@\n"
    r.label r.n r.n_requested
    (if r.complete then "" else ", partial")
    r.n_pilot r.n_simulated r.n_hits r.p_hat r.ci_lo r.ci_hi
    r.cutoff r.margin r.residual_std
    (100.0 *. simulation_fraction r)
