module C = Vstat_runtime.Checkpoint
module R = Vstat_runtime.Runtime

let log_src =
  Logs.Src.create "vstat.rare" ~doc:"Rare-event estimation engine"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  label : string;
  proposal : Proposal.t;
  n_requested : int;
  n : int;
  n_hits : int;
  p_hat : float;
  ci_lo : float;
  ci_hi : float;
  sn_p_hat : float;
  ess : float;
  sum_weight : float;
  max_weight : float;
  metrics : float array;
  log_weights : float array;
  stats : R.stats;
  complete : bool;
}

(* Fold the index-ordered per-sample results into the estimator sums.
   Serial by construction — bit-identity across jobs counts depends on
   this single fold order, not on any merged accumulator.  One pass per
   Monte Carlo sample over plain float arrays: hot. *)
let[@vstat.hot] fold_weighted ~(metrics : float array)
    ~(log_weights : float array) ~(hits : Bytes.t) (wacc : Wacc.t) =
  let n = Array.length metrics in
  (* Plain Welford over y_i = w_i * 1{fail}: mean is the unbiased
     estimate, m2/(n-1) its variance. *)
  let y_mean = ref 0.0 in
  let y_m2 = ref 0.0 in
  let n_hits = ref 0 in
  let i = ref 0 in
  while !i < n do
    let w = exp log_weights.(!i) in
    let hit = Bytes.unsafe_get hits !i <> '\000' in
    if hit then incr n_hits;
    let y = if hit then w else 0.0 in
    let k = Float.of_int (!i + 1) in
    let d = y -. !y_mean in
    y_mean := !y_mean +. (d /. k);
    y_m2 := !y_m2 +. (d *. (y -. !y_mean));
    Wacc.add wacc ~w (if hit then 1.0 else 0.0);
    incr i
  done;
  (!y_mean, !y_m2, !n_hits)

let estimate ~(proposal : Proposal.t) ~(problem : Problem.t) ~rng ~n () =
  if n < 2 then
    invalid_arg
      (Printf.sprintf "Importance.estimate: need at least 2 samples, got %d" n);
  if proposal.Proposal.dim <> problem.Problem.dim then
    invalid_arg
      (Printf.sprintf
         "Importance.estimate: proposal dimension %d but problem dimension %d"
         proposal.Proposal.dim problem.Problem.dim);
  let label = problem.Problem.label ^ "-is" in
  let fingerprint =
    String.concat "|"
      [ Problem.fingerprint problem; "proposal:" ^ Proposal.to_string proposal ]
  in
  let r =
    C.collect ~fingerprint ~codec:C.float_pair_codec
      ~label ~rng ~n
      ~f:(fun ~attempt ~index:_ sample_rng ->
        let z = Proposal.draw proposal sample_rng in
        let metric = problem.Problem.simulate ~attempt z in
        (metric, Proposal.log_weight proposal z))
      ()
  in
  let pairs = R.values r in
  let n_ok = Array.length pairs in
  let metrics = Array.map fst pairs in
  let log_weights = Array.map snd pairs in
  let hits = Bytes.make n_ok '\000' in
  Array.iteri
    (fun i m -> if Problem.fails problem m then Bytes.set hits i '\001')
    metrics;
  let wacc = Wacc.create () in
  let y_mean, y_m2, n_hits = fold_weighted ~metrics ~log_weights ~hits wacc in
  let nf = Float.of_int n_ok in
  let p_hat = y_mean in
  let y_var = if n_ok > 1 then y_m2 /. (nf -. 1.0) else 0.0 in
  let half = Vstat_util.Special.z95 *. sqrt (y_var /. nf) in
  let result =
    {
      label;
      proposal;
      n_requested = n;
      n = n_ok;
      n_hits;
      p_hat;
      ci_lo = Float.max 0.0 (p_hat -. half);
      ci_hi = Float.min 1.0 (p_hat +. half);
      sn_p_hat = (let m = Wacc.mean wacc in if Float.is_nan m then 0.0 else m);
      ess = Wacc.ess wacc;
      sum_weight = Wacc.sum_weights wacc;
      max_weight = Wacc.max_weight wacc;
      metrics;
      log_weights;
      stats = r.R.stats;
      complete = Array.length r.R.cells = n;
    }
  in
  Log.info (fun m ->
      m "%s: p=%.3e [%.3e, %.3e] hits=%d/%d ess=%.1f" label result.p_hat
        result.ci_lo result.ci_hi n_hits n_ok result.ess);
  result

let mc_equivalent_samples r =
  let half = 0.5 *. (r.ci_hi -. r.ci_lo) in
  if half > 0.0 && r.p_hat > 0.0 then begin
    let z = Vstat_util.Special.z95 in
    r.p_hat *. (1.0 -. r.p_hat) *. (z /. half) *. (z /. half)
  end
  else Float.nan

let pp ppf r =
  Format.fprintf ppf
    "%s: n=%d (%d requested%s) hits=%d@\n\
    \  p_hat = %.4e  [%.4e, %.4e] (95%% LR-aware)@\n\
    \  self-normalized = %.4e  ESS = %.1f  sum(w) = %.4g  max(w) = %.4g@\n"
    r.label r.n r.n_requested
    (if r.complete then "" else ", partial")
    r.n_hits r.p_hat r.ci_lo r.ci_hi r.sn_p_hat r.ess r.sum_weight r.max_weight
