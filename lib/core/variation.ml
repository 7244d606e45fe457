type alphas = {
  a_vt0 : float;
  a_l : float;
  a_w : float;
  a_mu : float;
  a_cinv : float;
}

type sigmas = {
  s_vt0 : float;
  s_l : float;
  s_w : float;
  s_mu : float;
  s_cinv : float;
}

let sigmas_of_alphas a ~w_nm ~l_nm =
  if w_nm <= 0.0 || l_nm <= 0.0 then
    invalid_arg "Variation.sigmas_of_alphas: geometry must be positive";
  let sqrt_wl = sqrt (w_nm *. l_nm) in
  {
    s_vt0 = a.a_vt0 /. sqrt_wl;
    s_l = a.a_l *. sqrt (l_nm /. w_nm);
    s_w = a.a_w *. sqrt (w_nm /. l_nm);
    s_mu = a.a_mu /. sqrt_wl;
    s_cinv = a.a_cinv /. sqrt_wl;
  }

let vxo_mu_exponent = 0.5
let vxo_gamma = 0.45
let vxo_delta_sensitivity = 2.0

let vxo_relative_shift ~ballistic_b ~dmu_rel ~ddelta =
  let coeff =
    vxo_mu_exponent
    +. ((1.0 -. ballistic_b) *. (1.0 -. vxo_mu_exponent +. vxo_gamma))
  in
  (coeff *. dmu_rel) +. (vxo_delta_sensitivity *. ddelta)

let paper_alphas_nmos =
  { a_vt0 = 2.3; a_l = 3.71; a_w = 3.71; a_mu = 944.0; a_cinv = 0.29 }

let paper_alphas_pmos =
  { a_vt0 = 2.86; a_l = 3.66; a_w = 3.66; a_mu = 781.0; a_cinv = 0.81 }
