module Vs = Vstat_device.Vs_model

type t = {
  label : string;
  polarity : Vstat_device.Device_model.polarity;
  alphas : Variation.alphas;
  nominal : w_nm:float -> l_nm:float -> Vs.params;
}

type shifts = {
  dvt0 : float;
  dl_nm : float;
  dw_nm : float;
  dmu : float;
  dcinv : float;
}

let zero_shifts = { dvt0 = 0.0; dl_nm = 0.0; dw_nm = 0.0; dmu = 0.0; dcinv = 0.0 }

let apply_shifts (p : Vs.params) s =
  let l' = Float.max (p.l +. Vstat_device.Cards.nm s.dl_nm) 1e-9 in
  let w' = Float.max (p.w +. Vstat_device.Cards.nm s.dw_nm) 1e-9 in
  let mu' =
    Float.max (p.mu +. Vstat_device.Cards.cm2_per_vs s.dmu) (0.05 *. p.mu)
  in
  let cinv' =
    Float.max
      (p.cinv +. Vstat_device.Cards.uf_per_cm2 s.dcinv)
      (0.5 *. p.cinv)
  in
  (* vxo is slaved to the mobility and DIBL shifts (paper eq. (5)). *)
  let ddelta = Vs.delta_of_length p.dibl l' -. Vs.delta_of_length p.dibl p.l in
  let dmu_rel = (mu' -. p.mu) /. p.mu in
  let vxo_shift =
    Variation.vxo_relative_shift ~ballistic_b:p.ballistic_b ~dmu_rel ~ddelta
  in
  let vxo' = Float.max (p.vxo *. (1.0 +. vxo_shift)) (0.05 *. p.vxo) in
  {
    p with
    Vs.vt0 = p.vt0 +. s.dvt0;
    l = l';
    w = w';
    mu = mu';
    cinv = cinv';
    vxo = vxo';
  }

let draw_shifts t rng ~w_nm ~l_nm =
  let s = Variation.sigmas_of_alphas t.alphas ~w_nm ~l_nm in
  let gauss sigma = Vstat_util.Rng.gaussian_scaled rng ~mean:0.0 ~sigma in
  {
    dvt0 = gauss s.s_vt0;
    dl_nm = gauss s.s_l;
    dw_nm = gauss s.s_w;
    dmu = gauss s.s_mu;
    dcinv = gauss s.s_cinv;
  }

let sample_params t rng ~w_nm ~l_nm =
  apply_shifts (t.nominal ~w_nm ~l_nm) (draw_shifts t rng ~w_nm ~l_nm)

let sample_device t rng ~w_nm ~l_nm =
  Vs.device ~name:t.label ~polarity:t.polarity
    (sample_params t rng ~w_nm ~l_nm)

let nominal_device t ~w_nm ~l_nm =
  Vs.device ~name:t.label ~polarity:t.polarity (t.nominal ~w_nm ~l_nm)

let seed_nmos =
  {
    label = "vs-seed-nmos";
    polarity = Vstat_device.Device_model.Nmos;
    alphas = Variation.paper_alphas_nmos;
    nominal = (fun ~w_nm ~l_nm -> Vstat_device.Cards.vs_seed_nmos ~w_nm ~l_nm);
  }
