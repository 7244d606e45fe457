type dibl = { delta0 : float; l_nominal : float; l_scale : float }

(* Clamped to a physical range: DIBL beyond ~0.4 V/V means punch-through,
   outside the model's validity (also keeps extreme Monte Carlo length draws
   from producing absurd devices). *)
let delta_of_length d l =
  Vstat_util.Floatx.clamp ~lo:1e-4 ~hi:0.4
    (d.delta0 *. exp ((d.l_nominal -. l) /. d.l_scale))

type params = {
  w : float;
  l : float;
  cinv : float;
  vt0 : float;
  dibl : dibl;
  n0 : float;
  nd : float;
  vxo : float;
  mu : float;
  beta : float;
  alpha_q : float;
  phit : float;
  gamma_body : float;
  phib : float;
  cov : float;
  ballistic_b : float;
}

let delta p = delta_of_length p.dibl p.l

(* Exponentials are guarded so that wild Newton iterates (tens of volts)
   saturate smoothly instead of overflowing. *)
let exp_guard x = exp (Vstat_util.Floatx.clamp ~lo:(-60.0) ~hi:60.0 x)

(* The model's one kernel.  [canonical p] evaluates the per-device
   constants once and returns the bias kernel; their float expressions are
   the ones the kernel would otherwise repeat on every call, so hoisting
   them changes no bit.  The value lines come first; suffixes _g/_d/_b in
   the partials block are derivatives w.r.t. vgs/vds/vbs, validated
   against central finite differences in the device test suite. *)
let canonical p =
  let phit = p.phit in
  let sqrt_phib = sqrt p.phib in
  let dlt = delta p in
  let aphit = p.alpha_q *. phit in
  (* Saturation voltage blends from vxo.L/mu (strong inversion) to phit. *)
  let vdsats = p.vxo *. p.l /. p.mu in
  let inv_beta = 1.0 /. p.beta in
  (* d/dr [r (1+r^b)^(-1/b)] collapses to (1+r^b)^(-(1+b)/b). *)
  let dfsat_pow = -.(1.0 +. p.beta) /. p.beta in
  fun ~vgs ~vds ~vbs grad ->
  let n = p.n0 +. (p.nd *. vds) in
  let argb = p.phib -. vbs in
  let sq = sqrt (Float.max argb 1e-3) in
  let vt_body = p.gamma_body *. (sq -. sqrt_phib) in
  let vt = p.vt0 +. vt_body -. (dlt *. vds) in
  (* Inversion transition function: 1 in subthreshold, 0 in strong inversion. *)
  let eu = exp_guard ((vgs -. (vt -. (aphit /. 2.0))) /. aphit) in
  let ff = 1.0 /. (1.0 +. eu) in
  let denom = n *. phit in
  let sarg = (vgs -. (vt -. (aphit *. ff))) /. denom in
  let sp = Vstat_util.Floatx.softplus sarg in
  let qixo = p.cinv *. n *. phit *. sp in
  let vdsat = (vdsats *. (1.0 -. ff)) +. (phit *. ff) in
  let ratio = vds /. vdsat in
  let rb = ratio ** p.beta in
  let fsat = ratio /. ((1.0 +. rb) ** inv_beta) in
  let id = p.w *. fsat *. qixo *. p.vxo in
  (* Channel charge with a 50/50 (linear) to 60/40 (saturation) partition. *)
  let wl = p.w *. p.l in
  let qi = wl *. qixo in
  let qd_frac = 0.5 -. (0.1 *. fsat) in
  let cw = p.cov *. p.w in
  let qov_s = cw *. vgs in
  let qov_d = cw *. (vgs -. vds) in
  if Array.length grad >= Device_model.grad_length then begin
    let n_d = p.nd in
    (* Zero slope once the sqrt argument clamps (deep forward body bias). *)
    let vt_body_b =
      if argb > 1e-3 then -.p.gamma_body /. (2.0 *. sq) else 0.0
    in
    let vt_d = -.dlt and vt_b = vt_body_b in
    (* d/du of 1/(1+e^u); vanishes smoothly at the exp guard's saturation. *)
    let dff_du = -.ff *. ff *. eu in
    let ff_g = dff_du /. aphit in
    let ff_d = -.dff_du *. vt_d /. aphit in
    let ff_b = -.dff_du *. vt_b /. aphit in
    let numer_g = 1.0 +. (aphit *. ff_g) in
    let numer_d = -.vt_d +. (aphit *. ff_d) in
    let numer_b = -.vt_b +. (aphit *. ff_b) in
    let sarg_g = numer_g /. denom in
    let sarg_d = (numer_d -. (sarg *. phit *. n_d)) /. denom in
    let sarg_b = numer_b /. denom in
    let dsp = Vstat_util.Floatx.logistic sarg in
    let qixo_g = p.cinv *. denom *. dsp *. sarg_g in
    let qixo_d = p.cinv *. ((phit *. n_d *. sp) +. (denom *. dsp *. sarg_d)) in
    let qixo_b = p.cinv *. denom *. dsp *. sarg_b in
    let k_vdsat = phit -. vdsats in
    let vdsat_g = k_vdsat *. ff_g in
    let vdsat_d = k_vdsat *. ff_d in
    let vdsat_b = k_vdsat *. ff_b in
    let ratio_g = -.ratio *. vdsat_g /. vdsat in
    let ratio_d = (1.0 -. (ratio *. vdsat_d)) /. vdsat in
    let ratio_b = -.ratio *. vdsat_b /. vdsat in
    let dfsat_dratio = (1.0 +. rb) ** dfsat_pow in
    let fsat_g = dfsat_dratio *. ratio_g in
    let fsat_d = dfsat_dratio *. ratio_d in
    let fsat_b = dfsat_dratio *. ratio_b in
    let wv = p.w *. p.vxo in
    let qi_g = wl *. qixo_g and qi_d = wl *. qixo_d and qi_b = wl *. qixo_b in
    let qdf_g = -0.1 *. fsat_g in
    let qdf_d = -0.1 *. fsat_d in
    let qdf_b = -0.1 *. fsat_b in
    grad.(0) <- wv *. ((fsat_g *. qixo) +. (fsat *. qixo_g));
    grad.(1) <- qi_g +. (2.0 *. cw);
    grad.(2) <- -.((qdf_g *. qi) +. (qd_frac *. qi_g)) -. cw;
    grad.(3) <- (qdf_g *. qi) -. ((1.0 -. qd_frac) *. qi_g) -. cw;
    grad.(4) <- 0.0;
    grad.(5) <- wv *. ((fsat_d *. qixo) +. (fsat *. qixo_d));
    grad.(6) <- qi_d -. cw;
    grad.(7) <- -.((qdf_d *. qi) +. (qd_frac *. qi_d)) +. cw;
    grad.(8) <- (qdf_d *. qi) -. ((1.0 -. qd_frac) *. qi_d);
    grad.(9) <- 0.0;
    grad.(10) <- wv *. ((fsat_b *. qixo) +. (fsat *. qixo_b));
    grad.(11) <- qi_b;
    grad.(12) <- -.((qdf_b *. qi) +. (qd_frac *. qi_b));
    grad.(13) <- (qdf_b *. qi) -. ((1.0 -. qd_frac) *. qi_b);
    grad.(14) <- 0.0
  end;
  {
    Device_model.id;
    qg = qi +. qov_s +. qov_d;
    qd = (-.qd_frac *. qi) -. qov_d;
    qs = (-.(1.0 -. qd_frac) *. qi) -. qov_s;
    qb = 0.0;
  }

let device ?(name = "vs") ~polarity p =
  Device_model.make ~name ~polarity ~width:p.w ~length:p.l
    ~canonical:(canonical p) ()
