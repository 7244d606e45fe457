type model_result = {
  label : string;
  idsat : float array;
  log10_ioff : float array;
  ellipses : Vstat_stats.Ellipse.t list;
  coverages : float list;
}

type t = {
  w_nm : float;
  l_nm : float;
  n : int;
  golden : model_result;
  vs : model_result;
  correlation_golden : float;
  correlation_vs : float;
}

let analyze label (s : Vstat_core.Mc_device.samples) =
  let ellipses =
    List.map
      (fun k ->
        Vstat_stats.Ellipse.of_sigma_level ~n_sigma:k s.idsat s.log10_ioff)
      [ 1; 2; 3 ]
  in
  let coverages =
    List.map
      (fun e -> Vstat_stats.Ellipse.coverage e s.idsat s.log10_ioff)
      ellipses
  in
  {
    label;
    idsat = s.idsat;
    log10_ioff = s.log10_ioff;
    ellipses;
    coverages;
  }

let run ?(n = 1000) ?(seed = 17) (p : Vstat_core.Pipeline.t) =
  let w_nm = 600.0 in
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let rng = Vstat_util.Rng.create ~seed in
  let run_label model = Printf.sprintf "fig4-w%g-%s" w_nm model in
  let b =
    Vstat_core.Mc_device.of_bsim ~label:(run_label "golden") p.golden_nmos
      ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd:p.vdd
  in
  let v =
    Vstat_core.Mc_device.of_vs ~label:(run_label "vs") p.vs_nmos
      ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd:p.vdd
  in
  {
    w_nm;
    l_nm;
    n;
    golden = analyze "golden" b;
    vs = analyze "vs" v;
    correlation_golden =
      Vstat_stats.Descriptive.correlation b.idsat b.log10_ioff;
    correlation_vs = Vstat_stats.Descriptive.correlation v.idsat v.log10_ioff;
  }

let pp ppf t =
  Format.fprintf ppf
    "Fig.4: Ion vs log10(Ioff) scatter + confidence ellipses (W/L=%.0f/%.0f, n=%d)@\n"
    t.w_nm t.l_nm t.n;
  let describe m =
    Format.fprintf ppf "  %s: mean Ion=%.1f uA  mean log10Ioff=%.3f@\n" m.label
      (1e6 *. Vstat_stats.Descriptive.mean m.idsat)
      (Vstat_stats.Descriptive.mean m.log10_ioff);
    List.iteri
      (fun i (e : Vstat_stats.Ellipse.t) ->
        let a, b = e.axis_lengths in
        Format.fprintf ppf
          "    %dsigma ellipse: axes (%.3g, %.3g) angle %.1f deg  nominal cov %.3f  empirical %.3f@\n"
          (i + 1) a b
          (e.angle *. 180.0 /. Float.pi)
          e.confidence
          (List.nth m.coverages i))
      m.ellipses
  in
  describe t.golden;
  describe t.vs;
  Format.fprintf ppf
    "  corr(Ion, log10Ioff): golden=%.3f  vs=%.3f (strongly coupled via VT)@\n"
    t.correlation_golden t.correlation_vs
