type t = {
  vdd : float;
  geometries : (float * float) list;
  golden_nmos : Bsim_statistical.t;
  golden_pmos : Bsim_statistical.t;
  fit_nmos : Extract_nominal.result;
  fit_pmos : Extract_nominal.result;
  observations_nmos : Bpv.observation list;
  observations_pmos : Bpv.observation list;
  bpv_nmos : Bpv.result;
  bpv_pmos : Bpv.result;
  vs_nmos : Vs_statistical.t;
  vs_pmos : Vs_statistical.t;
}

let geometries =
  [
    (120.0, 40.0);
    (200.0, 40.0);
    (300.0, 40.0);
    (600.0, 40.0);
    (1000.0, 40.0);
    (1500.0, 40.0);
  ]

let build ?(seed = 42) ?jobs ?(mc_per_geometry = 2000) () =
  let vdd = Vstat_device.Cards.vdd_nominal in
  let rng = Vstat_util.Rng.create ~seed in
  let golden_nmos = Bsim_statistical.golden_nmos in
  let golden_pmos = Bsim_statistical.golden_pmos in
  Logs.info (fun m -> m "pipeline: fitting nominal VS cards");
  let fit_nmos =
    Extract_nominal.fit ~polarity:Vstat_device.Device_model.Nmos ()
  in
  let fit_pmos =
    Extract_nominal.fit ~polarity:Vstat_device.Device_model.Pmos ()
  in
  let provisional polarity label fit alphas =
    {
      Vs_statistical.label;
      polarity;
      alphas;
      nominal =
        (fun ~w_nm ~l_nm -> fit.Extract_nominal.params_of ~w_nm ~l_nm);
    }
  in
  (* Each geometry gets its own snapshot file (label = polarity +
     geometry), so an interrupted pipeline build resumes from the first
     geometry whose journal is incomplete. *)
  let observe pol golden =
    List.map
      (fun (w_nm, l_nm) ->
        Bpv.observe_golden ?jobs
          ~label:(Printf.sprintf "bpv-%s-w%g-l%g" pol w_nm l_nm)
          ~fingerprint:
            (Printf.sprintf "pipeline:seed=%d:vdd=%g:n=%d" seed vdd
               mc_per_geometry)
          golden
          ~rng:(Vstat_util.Rng.split rng)
          ~n:mc_per_geometry ~vdd ~w_nm ~l_nm)
      geometries
  in
  Logs.info (fun m -> m "pipeline: measuring golden sigmas");
  let observations_nmos = observe "nmos" golden_nmos in
  let observations_pmos = observe "pmos" golden_pmos in
  Logs.info (fun m -> m "pipeline: running BPV extraction");
  let options_n =
    { Bpv.default_options with known_cinv_alpha = golden_nmos.alphas.a_cinv }
  in
  let options_p =
    { Bpv.default_options with known_cinv_alpha = golden_pmos.alphas.a_cinv }
  in
  let pre_n =
    provisional Vstat_device.Device_model.Nmos "vs-stat-nmos" fit_nmos
      Variation.paper_alphas_nmos
  in
  let pre_p =
    provisional Vstat_device.Device_model.Pmos "vs-stat-pmos" fit_pmos
      Variation.paper_alphas_pmos
  in
  let bpv_nmos = Bpv.extract ~vs:pre_n ~vdd ~options:options_n observations_nmos in
  let bpv_pmos = Bpv.extract ~vs:pre_p ~vdd ~options:options_p observations_pmos in
  let vs_nmos = { pre_n with alphas = bpv_nmos.alphas } in
  let vs_pmos = { pre_p with alphas = bpv_pmos.alphas } in
  {
    vdd;
    geometries;
    golden_nmos;
    golden_pmos;
    fit_nmos;
    fit_pmos;
    observations_nmos;
    observations_pmos;
    bpv_nmos;
    bpv_pmos;
    vs_nmos;
    vs_pmos;
  }
