type t = {
  n_dies : int;
  per_die : int;
  within_delays : float array;
  total_delays : float array;
  sigma_within : float;
  sigma_total : float;
  sigma_inter_implied : float;
}

let measure_delay tech =
  let s = Vstat_cells.Inverter.sample tech ~wp_nm:600.0 ~wn_nm:300.0 ~fanout:3 in
  (Vstat_cells.Inverter.measure s).tpd

let run ?(n_dies = 20) ?(per_die = 8) ?(seed = 53) (p : Vstat_core.Pipeline.t) =
  let rng = Vstat_util.Rng.create ~seed in
  let vdd = p.vdd in
  (* The die shifts come first, so sample [i] of either sweep is a pure
     function of its index: it sits on die [i / per_die]. *)
  let dies =
    Array.init n_dies (fun _ ->
        Vstat_core.Inter_die.draw Vstat_core.Inter_die.default_40nm rng)
  in
  let sweep label tech_of_sample =
    Vstat_runtime.Runtime.values
      (Mc_compare.collect_indexed ~codec:Vstat_runtime.Checkpoint.float_codec
         ~label:("inter-die-" ^ label) ~n:(n_dies * per_die) ~tech_of_sample
         ~rng ~measure:measure_delay ())
  in
  let total_delays =
    sweep "total" (fun ~index rng ->
        Vstat_core.Inter_die.die_tech p ~die:dies.(index / per_die) ~rng ~vdd)
  in
  let within_delays =
    sweep "within" (fun ~index:_ rng ->
        Vstat_core.Techs.stochastic_vs p ~rng ~vdd)
  in
  let sigma_within = Vstat_stats.Descriptive.std within_delays in
  let sigma_total = Vstat_stats.Descriptive.std total_delays in
  {
    n_dies;
    per_die;
    within_delays;
    total_delays;
    sigma_within;
    sigma_total;
    sigma_inter_implied =
      Vstat_core.Inter_die.decompose_variance ~total:total_delays
        ~within:within_delays;
  }

let pp ppf t =
  Format.fprintf ppf
    "Extension: inter-die + within-die delay variation (eq. 1), %d dies x %d cells@\n"
    t.n_dies t.per_die;
  Format.fprintf ppf
    "  sigma(within-die only)     = %.3f ps@\n\
    \  sigma(total, with global)  = %.3f ps@\n\
    \  implied inter-die sigma    = %.3f ps  (variance subtraction)@\n"
    (1e12 *. t.sigma_within) (1e12 *. t.sigma_total)
    (1e12 *. t.sigma_inter_implied)
