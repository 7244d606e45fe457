let l_nm = Vstat_device.Cards.l_nominal_nm

let stochastic_vs (p : Pipeline.t) ~rng ~vdd =
  {
    Vstat_cells.Celltech.label = "vs-statistical";
    vdd;
    l_nm;
    nmos = (fun ~w_nm -> Vs_statistical.sample_device p.vs_nmos rng ~w_nm ~l_nm);
    pmos = (fun ~w_nm -> Vs_statistical.sample_device p.vs_pmos rng ~w_nm ~l_nm);
  }

let stochastic_bsim (p : Pipeline.t) ~rng ~vdd =
  {
    Vstat_cells.Celltech.label = "bsim-statistical";
    vdd;
    l_nm;
    nmos =
      (fun ~w_nm -> Bsim_statistical.sample_device p.golden_nmos rng ~w_nm ~l_nm);
    pmos =
      (fun ~w_nm -> Bsim_statistical.sample_device p.golden_pmos rng ~w_nm ~l_nm);
  }

let nominal_vs (p : Pipeline.t) ~vdd =
  {
    Vstat_cells.Celltech.label = "vs-nominal";
    vdd;
    l_nm;
    nmos = (fun ~w_nm -> Vs_statistical.nominal_device p.vs_nmos ~w_nm ~l_nm);
    pmos = (fun ~w_nm -> Vs_statistical.nominal_device p.vs_pmos ~w_nm ~l_nm);
  }
