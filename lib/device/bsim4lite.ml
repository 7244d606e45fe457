type params = {
  w : float;
  l : float;
  dl : float;
  dw : float;
  cox : float;
  vth0 : float;
  k1 : float;
  phis : float;
  dvt0 : float;
  dvt_l : float;
  eta0 : float;
  eta_l : float;
  u0 : float;
  ua : float;
  ub : float;
  vsat : float;
  n_ss : float;
  lambda : float;
  phit : float;
  cov : float;
}

let leff p = Float.max (p.l -. p.dl) 1e-9
let weff p = Float.max (p.w -. p.dw) 1e-9

(* The model's one kernel.  [canonical p] evaluates the per-device
   constants (effective geometry, roll-off, DIBL, capacitance products)
   once and returns the bias kernel; their float expressions are the ones
   the kernel would otherwise repeat on every call, so hoisting them
   changes no bit.  The value lines come first; suffixes _g/_d/_b in the
   partials block are derivatives w.r.t. vgs/vds/vbs.  Everything upstream
   of Vdseff (mobility, Esat, Vdsat) depends on bias only through Vgsteff,
   so those stages carry a single scalar derivative w.r.t. Vgsteff that is
   chained out at the end.  Validated against central finite differences
   in the device test suite. *)
let canonical p =
  let l = leff p and w = weff p in
  let phit = p.phit in
  let sqrt_phis = sqrt p.phis in
  let rolloff = p.dvt0 *. exp (-.l /. p.dvt_l) in
  let eta = p.eta0 *. exp (-.l /. p.eta_l) in
  let w_over_l = w /. l in
  let kk = p.cox *. w /. l in
  let wlc = w *. l *. p.cox in
  let cw = p.cov *. w in
  fun ~vgs ~vds ~vbs grad ->
  let body =
    p.k1 *. (sqrt (Float.max (p.phis -. vbs) 1e-3) -. sqrt_phis)
  in
  let vth = p.vth0 +. body -. rolloff -. (eta *. vds) in
  (* Smoothed effective overdrive: exponential subthreshold, linear above. *)
  let nphit = p.n_ss *. phit in
  let sarg = (vgs -. vth) /. nphit in
  let vgsteff = nphit *. Vstat_util.Floatx.softplus sarg in
  (* Vertical-field mobility degradation. *)
  let den_mu = 1.0 +. (p.ua *. vgsteff) +. (p.ub *. vgsteff *. vgsteff) in
  let mu_eff = p.u0 /. den_mu in
  let esat = 2.0 *. p.vsat /. mu_eff in
  let esat_l = esat *. l in
  let dv = esat_l +. vgsteff +. 1e-12 in
  let vdsat_raw = esat_l *. vgsteff /. dv in
  let vdsat = Float.max vdsat_raw (2.0 *. phit) in
  (* Smooth minimum of Vds and Vdsat. *)
  let m = 4.0 in
  let rm = (vds /. vdsat) ** m in
  let root = (1.0 +. rm) ** (1.0 /. m) in
  let vdseff = vds /. root in
  (* BSIM-style bulk-charge factor keeps the current positive all the way
     into subthreshold, where Vdseff saturates at ~2 phit. *)
  let cden = 2.0 *. (vgsteff +. (2.0 *. phit)) in
  let charge_factor = 1.0 -. (vdseff /. cden) in
  let dv2 = 1.0 +. (vdseff /. esat_l) in
  let id_core =
    mu_eff *. p.cox *. w_over_l
    *. vgsteff *. vdseff *. charge_factor
    /. dv2
  in
  let lam_t = 1.0 +. (p.lambda *. (vds -. vdseff)) in
  let id = id_core *. lam_t in
  (* Terminal charges: inversion charge ~ W L Cox Vgsteff, partitioned
     50/50 in triode to 60/40 in saturation; linear overlap caps. *)
  let qi = wlc *. vgsteff in
  let raw_s = vdseff /. vdsat in
  let sat_ratio = Vstat_util.Floatx.clamp ~lo:0.0 ~hi:1.0 raw_s in
  let qd_frac = 0.5 -. (0.1 *. sat_ratio) in
  let qov_s = cw *. vgs in
  let qov_d = cw *. (vgs -. vds) in
  if Array.length grad >= Device_model.grad_length then begin
    let argb = p.phis -. vbs in
    let vth_b =
      if argb > 1e-3 then -.p.k1 /. (2.0 *. sqrt argb) else 0.0
    in
    let vth_d = -.eta in
    let dsp = Vstat_util.Floatx.logistic sarg in
    let vg_g = dsp in
    let vg_d = -.dsp *. vth_d in
    let vg_b = -.dsp *. vth_b in
    (* d mu_eff / d vgsteff *)
    let mu' = -.mu_eff *. (p.ua +. (2.0 *. p.ub *. vgsteff)) /. den_mu in
    let esl' = -.esat_l *. mu' /. mu_eff in
    let vdsat_raw' =
      ((((esl' *. vgsteff) +. esat_l) *. dv)
       -. (esat_l *. vgsteff *. (esl' +. 1.0)))
      /. (dv *. dv)
    in
    let vdsat' = if vdsat_raw <= 2.0 *. phit then 0.0 else vdsat_raw' in
    let vdsat_g = vdsat' *. vg_g in
    let vdsat_d = vdsat' *. vg_d in
    let vdsat_b = vdsat' *. vg_b in
    (* m = 4: vdseff = vds / root with root = (1 + r^4)^(1/4); the
       direct-vds slope collapses to root^-5 and the vdsat slope to r^5
       times the same factor. *)
    let a_eff = 1.0 /. (root *. root *. root *. root *. root) in
    let b_eff = vds /. vdsat *. rm *. a_eff in
    let ve_g = b_eff *. vdsat_g in
    let ve_d = a_eff +. (b_eff *. vdsat_d) in
    let ve_b = b_eff *. vdsat_b in
    let cf_of ve_x vg_x =
      (-.ve_x /. cden) +. (vdseff *. 2.0 *. vg_x /. (cden *. cden))
    in
    let cf_g = cf_of ve_g vg_g and cf_d = cf_of ve_d vg_d
    and cf_b = cf_of ve_b vg_b in
    let dv2_of ve_x vg_x =
      (ve_x /. esat_l) -. (vdseff *. esl' *. vg_x /. (esat_l *. esat_l))
    in
    let dv2_g = dv2_of ve_g vg_g and dv2_d = dv2_of ve_d vg_d
    and dv2_b = dv2_of ve_b vg_b in
    let cf = charge_factor in
    let id_core_of vg_x ve_x cf_x dv2_x =
      let prod_x =
        (mu' *. vg_x *. vgsteff *. vdseff *. cf)
        +. (mu_eff *. vg_x *. vdseff *. cf)
        +. (mu_eff *. vgsteff *. ve_x *. cf)
        +. (mu_eff *. vgsteff *. vdseff *. cf_x)
      in
      (kk *. prod_x /. dv2) -. (id_core *. dv2_x /. dv2)
    in
    let idc_g = id_core_of vg_g ve_g cf_g dv2_g in
    let idc_d = id_core_of vg_d ve_d cf_d dv2_d in
    let idc_b = id_core_of vg_b ve_b cf_b dv2_b in
    let qi_g = wlc *. vg_g and qi_d = wlc *. vg_d and qi_b = wlc *. vg_b in
    (* The lower clamp never binds (vds >= 0 in the canonical quadrant), so
       only the saturation-side clamp zeroes the slope. *)
    let sat_of ve_x vdsat_x =
      if raw_s < 1.0 then (ve_x -. (raw_s *. vdsat_x)) /. vdsat else 0.0
    in
    let qdf_g = -0.1 *. sat_of ve_g vdsat_g
    and qdf_d = -0.1 *. sat_of ve_d vdsat_d
    and qdf_b = -0.1 *. sat_of ve_b vdsat_b in
    grad.(0) <- (idc_g *. lam_t) -. (id_core *. p.lambda *. ve_g);
    grad.(1) <- qi_g +. (2.0 *. cw);
    grad.(2) <- -.((qdf_g *. qi) +. (qd_frac *. qi_g)) -. cw;
    grad.(3) <- (qdf_g *. qi) -. ((1.0 -. qd_frac) *. qi_g) -. cw;
    grad.(4) <- 0.0;
    grad.(5) <- (idc_d *. lam_t) +. (id_core *. p.lambda *. (1.0 -. ve_d));
    grad.(6) <- qi_d -. cw;
    grad.(7) <- -.((qdf_d *. qi) +. (qd_frac *. qi_d)) +. cw;
    grad.(8) <- (qdf_d *. qi) -. ((1.0 -. qd_frac) *. qi_d);
    grad.(9) <- 0.0;
    grad.(10) <- (idc_b *. lam_t) -. (id_core *. p.lambda *. ve_b);
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

let device ?(name = "bsim4lite") ~polarity p =
  Device_model.make ~name ~polarity ~width:(weff p) ~length:(leff p)
    ~canonical:(canonical p) ()
