(* Tests for the statistical VS core: Pelgrom scaling, the vxo coupling,
   shift application, sensitivities, BPV extraction, nominal extraction and
   the end-to-end pipeline. *)

module V = Vstat_core.Variation
module Vss = Vstat_core.Vs_statistical
module Bss = Vstat_core.Bsim_statistical
module Sens = Vstat_core.Sensitivity
module Bpv = Vstat_core.Bpv
module Mc = Vstat_core.Mc_device
module En = Vstat_core.Extract_nominal
module P = Vstat_core.Pipeline
module D = Vstat_stats.Descriptive
module Rng = Vstat_util.Rng

let vdd = Vstat_device.Cards.vdd_nominal

let check_float ?(eps = 1e-9) name expected actual =
  Alcotest.(check (float eps)) name expected actual

(* Shared small pipeline for the expensive integration tests. *)
let pipeline = lazy (P.build ~seed:42 ~mc_per_geometry:800 ())

(* --- Variation --- *)

let test_pelgrom_forms () =
  let a = { V.a_vt0 = 2.0; a_l = 4.0; a_w = 4.0; a_mu = 900.0; a_cinv = 0.3 } in
  let s = V.sigmas_of_alphas a ~w_nm:400.0 ~l_nm:100.0 in
  check_float ~eps:1e-12 "sigma vt0" (2.0 /. 200.0) s.s_vt0;
  check_float ~eps:1e-12 "sigma L = a2 sqrt(L/W)" (4.0 *. 0.5) s.s_l;
  check_float ~eps:1e-12 "sigma W = a3 sqrt(W/L)" (4.0 *. 2.0) s.s_w;
  check_float ~eps:1e-12 "sigma mu" (900.0 /. 200.0) s.s_mu;
  (* The paper's LER tie: sigma_L / sigma_W = L / W. *)
  check_float ~eps:1e-12 "LER tie" (100.0 /. 400.0) (s.s_l /. s.s_w)

let test_pelgrom_area_law () =
  let a = V.paper_alphas_nmos in
  let s1 = V.sigmas_of_alphas a ~w_nm:600.0 ~l_nm:40.0 in
  let s4 = V.sigmas_of_alphas a ~w_nm:2400.0 ~l_nm:160.0 in
  (* 16x area -> 4x smaller relative spread for area-law parameters. *)
  check_float ~eps:1e-12 "vt0 area law" (s1.s_vt0 /. 4.0) s4.s_vt0;
  check_float ~eps:1e-12 "mu area law" (s1.s_mu /. 4.0) s4.s_mu

let test_pelgrom_rejects_bad_geometry () =
  match V.sigmas_of_alphas V.paper_alphas_nmos ~w_nm:0.0 ~l_nm:40.0 with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_vxo_shift_formula () =
  (* alpha + (1-B)(1-alpha+gamma) with alpha=0.5, gamma=0.45. *)
  let b = 0.25 in
  let coeff = 0.5 +. (0.75 *. 0.95) in
  check_float ~eps:1e-12 "mu term"
    (coeff *. 0.02)
    (V.vxo_relative_shift ~ballistic_b:b ~dmu_rel:0.02 ~ddelta:0.0);
  check_float ~eps:1e-12 "delta term" (2.0 *. 0.01)
    (V.vxo_relative_shift ~ballistic_b:b ~dmu_rel:0.0 ~ddelta:0.01)

(* --- Vs_statistical --- *)

let test_apply_shifts_identity () =
  let p = Vstat_device.Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let p' = Vss.apply_shifts p Vss.zero_shifts in
  check_float ~eps:1e-15 "vt0 unchanged" p.vt0 p'.vt0;
  check_float ~eps:1e-15 "vxo unchanged" p.vxo p'.vxo

let test_apply_shifts_length_coupling () =
  let p = Vstat_device.Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let shorter = Vss.apply_shifts p { Vss.zero_shifts with dl_nm = -2.0 } in
  (* Shorter channel -> more DIBL -> higher delta -> vxo increases via the
     2x delta sensitivity. *)
  Alcotest.(check bool) "delta up" true
    (Vstat_device.Vs_model.delta shorter > Vstat_device.Vs_model.delta p);
  Alcotest.(check bool) "vxo slaved up" true (shorter.vxo > p.vxo)

let test_apply_shifts_mobility_coupling () =
  let p = Vstat_device.Cards.vs_seed_nmos ~w_nm:600.0 ~l_nm:40.0 in
  let s = { Vss.zero_shifts with dmu = 20.0 } in
  (* +10% mobility in cm2/Vs units *)
  let p' = Vss.apply_shifts p s in
  let expected_rel =
    V.vxo_relative_shift ~ballistic_b:p.ballistic_b ~dmu_rel:0.01 ~ddelta:0.0
  in
  check_float ~eps:1e-9 "vxo tracks mu"
    (p.vxo *. (1.0 +. (expected_rel *. 10.0)))
    p'.vxo

let test_sampling_deterministic () =
  let t = Vss.seed_nmos in
  let d1 = Vss.draw_shifts t (Rng.create ~seed:3) ~w_nm:600.0 ~l_nm:40.0 in
  let d2 = Vss.draw_shifts t (Rng.create ~seed:3) ~w_nm:600.0 ~l_nm:40.0 in
  check_float ~eps:1e-18 "same seed, same sample" d1.dvt0 d2.dvt0

let test_sampling_spread_matches_alphas () =
  let t = Vss.seed_nmos in
  let rng = Rng.create ~seed:4 in
  let n = 4000 in
  let vts =
    Array.init n (fun _ ->
        (Vss.draw_shifts t rng ~w_nm:600.0 ~l_nm:40.0).dvt0)
  in
  let expected = (V.sigmas_of_alphas t.alphas ~w_nm:600.0 ~l_nm:40.0).s_vt0 in
  check_float ~eps:(0.05 *. expected) "sampled sigma(vt0)" expected (D.std vts)

(* --- Bsim_statistical --- *)

let test_bsim_sampling_perturbs_all () =
  (* Through the sampled device: W and L move the electrical geometry,
     Vth0, u0 and Cox the on- and off-currents, and the on-current stays
     positive (u0 > 0). *)
  let t = Bss.golden_nmos in
  let rng = Rng.create ~seed:5 in
  let nominal = Bss.nominal_device t ~w_nm:600.0 ~l_nm:40.0 in
  let sample = Bss.sample_device t rng ~w_nm:600.0 ~l_nm:40.0 in
  let moved name f =
    Alcotest.(check bool) (name ^ " moved") true
      (not (Float.equal (f sample) (f nominal)))
  in
  moved "l" (fun d -> d.Vstat_device.Device_model.length);
  moved "w" (fun d -> d.Vstat_device.Device_model.width);
  moved "idsat" (fun d -> Vstat_device.Metrics.idsat d ~vdd);
  moved "ioff" (fun d -> Vstat_device.Metrics.log10_ioff d ~vdd);
  Alcotest.(check bool) "idsat stays positive" true
    (Vstat_device.Metrics.idsat sample ~vdd > 0.0)

(* --- Sensitivity --- *)

let test_sensitivity_signs () =
  let t = Vss.seed_nmos in
  let d = Sens.vs_derivative t ~w_nm:600.0 ~l_nm:40.0 ~vdd in
  (* Higher VT0 -> lower on-current, lower (more negative decades) Ioff. *)
  Alcotest.(check bool) "dIdsat/dVt0 < 0" true (d Sens.Idsat `Vt0 < 0.0);
  Alcotest.(check bool) "dlogIoff/dVt0 < 0" true (d Sens.Log10_ioff `Vt0 < 0.0);
  (* More mobility -> more current. *)
  Alcotest.(check bool) "dIdsat/dMu > 0" true (d Sens.Idsat `Mu > 0.0);
  (* Wider -> more current, more capacitance. *)
  Alcotest.(check bool) "dIdsat/dW > 0" true (d Sens.Idsat `W > 0.0);
  Alcotest.(check bool) "dCgg/dW > 0" true (d Sens.Cgg `W > 0.0);
  (* Cgg at vds=0 is nearly VT0-independent in strong inversion (the paper's
     matrix has a literal 0 there). *)
  let cgg_vt0 = Float.abs (d Sens.Cgg `Vt0) in
  let cgg_w = Float.abs (d Sens.Cgg `W) in
  Alcotest.(check bool) "Cgg ~ vt0-insensitive" true
    (cgg_vt0 *. 0.0148 < 0.05 *. (cgg_w *. 14.4))

let test_subthreshold_slope_sensitivity () =
  (* dlog10Ioff/dVT0 ~ -1/(n phit ln10). *)
  let t = Vss.seed_nmos in
  let p = t.nominal ~w_nm:600.0 ~l_nm:40.0 in
  let d = Sens.vs_derivative t ~w_nm:600.0 ~l_nm:40.0 ~vdd Sens.Log10_ioff `Vt0 in
  let ideal = -1.0 /. (p.n0 *. p.phit *. log 10.0) in
  (* Softened by the Ff transition; see the matching device test. *)
  Alcotest.(check bool) "ioff slope within (0.7, 1.05) of ideal" true
    (d < 0.7 *. ideal && d > 1.05 *. ideal)

(* --- BPV --- *)

(* Noise-free observations generated by forward propagation through the VS
   model itself: extraction must recover the generating alphas almost
   exactly (validates the solver independently of model-affinity issues). *)
let test_bpv_roundtrip_exact () =
  let t = { Vss.seed_nmos with alphas = V.paper_alphas_nmos } in
  let options =
    { Bpv.default_options with known_cinv_alpha = V.paper_alphas_nmos.a_cinv }
  in
  let observations =
    List.map
      (fun (w_nm, l_nm) ->
        let pred m =
          Bpv.predicted_sigma ~vs:t ~alphas:V.paper_alphas_nmos ~vdd ~w_nm
            ~l_nm m
        in
        {
          Bpv.w_nm;
          l_nm;
          sigma_idsat = pred Sens.Idsat;
          sigma_log10_ioff = pred Sens.Log10_ioff;
          sigma_cgg = pred Sens.Cgg;
        })
      [ (120.0, 40.0); (300.0, 40.0); (600.0, 40.0); (1500.0, 40.0) ]
  in
  let r = Bpv.extract ~vs:t ~vdd ~options observations in
  check_float ~eps:0.02 "a1 recovered" V.paper_alphas_nmos.a_vt0 r.alphas.a_vt0;
  check_float ~eps:0.05 "a2 recovered" V.paper_alphas_nmos.a_l r.alphas.a_l;
  check_float ~eps:20.0 "a4 recovered" V.paper_alphas_nmos.a_mu r.alphas.a_mu;
  Alcotest.(check bool) "tiny residual" true (r.residual < 1e-3)

let test_bpv_tie_enforced () =
  let t = { Vss.seed_nmos with alphas = V.paper_alphas_nmos } in
  let options =
    { Bpv.default_options with known_cinv_alpha = V.paper_alphas_nmos.a_cinv }
  in
  let observations =
    [
      Bpv.
        {
          w_nm = 600.0;
          l_nm = 40.0;
          sigma_idsat = 20e-6;
          sigma_log10_ioff = 0.19;
          sigma_cgg = 2e-17;
        };
    ]
  in
  let r = Bpv.extract ~vs:t ~vdd ~options observations in
  check_float ~eps:1e-12 "a2 = a3" r.alphas.a_l r.alphas.a_w;
  check_float ~eps:1e-12 "a5 passthrough" V.paper_alphas_nmos.a_cinv
    r.alphas.a_cinv

let test_bpv_untied_variant () =
  let t = { Vss.seed_nmos with alphas = V.paper_alphas_nmos } in
  let options =
    { Bpv.default_options with tie_l_w = false; known_cinv_alpha = 0.29 }
  in
  let observations =
    List.map
      (fun (w_nm, l_nm) ->
        let pred m =
          Bpv.predicted_sigma ~vs:t ~alphas:V.paper_alphas_nmos ~vdd ~w_nm
            ~l_nm m
        in
        {
          Bpv.w_nm;
          l_nm;
          sigma_idsat = pred Sens.Idsat;
          sigma_log10_ioff = pred Sens.Log10_ioff;
          sigma_cgg = pred Sens.Cgg;
        })
      [ (120.0, 40.0); (300.0, 40.0); (600.0, 40.0); (1500.0, 40.0) ]
  in
  let r = Bpv.extract ~vs:t ~vdd ~options observations in
  Alcotest.(check bool) "all alphas nonnegative" true
    (r.alphas.a_vt0 >= 0.0 && r.alphas.a_l >= 0.0 && r.alphas.a_w >= 0.0
   && r.alphas.a_mu >= 0.0)

let test_bpv_empty_rejected () =
  let t = Vss.seed_nmos in
  match Bpv.extract ~vs:t ~vdd ~options:Bpv.default_options [] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_contribution_breakdown_quadrature () =
  let t = { Vss.seed_nmos with alphas = V.paper_alphas_nmos } in
  let contributions =
    Bpv.contribution_breakdown ~vs:t ~alphas:t.alphas ~vdd ~w_nm:600.0
      ~l_nm:40.0 Sens.Idsat
  in
  let total =
    sqrt (List.fold_left (fun acc (_, c) -> acc +. (c *. c)) 0.0 contributions)
  in
  let predicted =
    Bpv.predicted_sigma ~vs:t ~alphas:t.alphas ~vdd ~w_nm:600.0 ~l_nm:40.0
      Sens.Idsat
  in
  check_float ~eps:1e-12 "quadrature sum" predicted total;
  Alcotest.(check int) "five contributors" 5 (List.length contributions)

(* --- Extract_nominal --- *)

let test_fit_improves_on_seed () =
  let lazy p = pipeline in
  Alcotest.(check bool) "log error < 0.15 decades" true
    (p.fit_nmos.rms_log_error < 0.15);
  Alcotest.(check bool) "rel error < 10%" true (p.fit_nmos.rms_rel_error < 0.10);
  Alcotest.(check bool) "pmos too" true (p.fit_pmos.rms_rel_error < 0.10)

let test_fit_physical_parameters () =
  let lazy p = pipeline in
  let f = p.fit_nmos.fitted in
  Alcotest.(check bool) "vt0 plausible" true (f.vt0 > 0.1 && f.vt0 < 0.6);
  Alcotest.(check bool) "n0 plausible" true (f.n0 > 1.0 && f.n0 < 2.0);
  Alcotest.(check bool) "vxo plausible" true (f.vxo > 2e4 && f.vxo < 3e5);
  Alcotest.(check bool) "beta plausible" true (f.beta > 1.0 && f.beta < 4.0)

let test_fit_params_retarget () =
  let lazy p = pipeline in
  let a = p.fit_nmos.params_of ~w_nm:600.0 ~l_nm:40.0 in
  let b = p.fit_nmos.params_of ~w_nm:1200.0 ~l_nm:40.0 in
  check_float ~eps:1e-15 "same vt0 across geometry" a.vt0 b.vt0;
  check_float ~eps:1e-15 "w retargeted" 1200e-9 b.w

let bits = List.map Int64.bits_of_float

(* The seven fitted parameters of a card. *)
let fitted_params (r : En.result) =
  let f = r.fitted in
  [ f.vt0; f.dibl.delta0; f.n0; f.vxo; f.mu; f.beta; f.alpha_q ]

(* Both fitted cards, bit for bit: the fit is a pure function of the
   constant cards, so any change to the objective, the optimizer or the
   model kernel that moves a card shows here first. *)
let test_fit_golden_cards () =
  let lazy p = pipeline in
  Alcotest.(check (list int64)) "nmos card"
    (bits
       [
         0x1.7996f4279b6f6p-2; 0x1.68e3cdb571fccp-4; 0x1.4f049d90b8aep+0;
         0x1.17194b085276p+16; 0x1.b4eb88d0ff84dp-6; 0x1.7c816a7bd3d5ep+0;
         0x1.80000000dc682p+0;
       ])
    (bits (fitted_params p.fit_nmos));
  Alcotest.(check (list int64)) "pmos card"
    (bits
       [
         0x1.cfb7610a562b7p-2; 0x1.7666e2f2af7eep-4; 0x1.413376a457974p+0;
         0x1.671d2983f64b3p+15; 0x1.6b01168b67745p-7; 0x1.7055df7168704p+0;
         0x1.0b6e4fbe4a7fcp+2;
       ])
    (bits (fitted_params p.fit_pmos))

(* --- Mc_device --- *)

let test_mc_device_shapes () =
  let rng = Rng.create ~seed:6 in
  let s =
    Mc.of_vs ~label:"shapes" Vss.seed_nmos ~rng ~n:50 ~w_nm:600.0 ~l_nm:40.0
      ~vdd
  in
  Alcotest.(check int) "n idsat" 50 (Array.length s.idsat);
  Alcotest.(check bool) "all positive" true (Array.for_all (fun x -> x > 0.0) s.idsat);
  Alcotest.(check bool) "all finite" true
    (Array.for_all Float.is_finite s.log10_ioff)

let test_mc_sigma_shrinks_with_width () =
  let rng = Rng.create ~seed:7 in
  let narrow =
    Mc.of_vs ~label:"narrow" Vss.seed_nmos ~rng ~n:600 ~w_nm:120.0 ~l_nm:40.0
      ~vdd
  in
  let wide =
    Mc.of_vs ~label:"wide" Vss.seed_nmos ~rng ~n:600 ~w_nm:1500.0 ~l_nm:40.0
      ~vdd
  in
  Alcotest.(check bool) "relative sigma shrinks" true
    (D.sigma_over_mu wide.idsat < D.sigma_over_mu narrow.idsat)

(* --- Pipeline (integration) --- *)

let test_pipeline_extraction_close_to_truth () =
  let lazy p = pipeline in
  let rel a b = Float.abs (a -. b) /. b in
  Alcotest.(check bool) "a1 within 25%" true
    (rel p.bpv_nmos.alphas.a_vt0 V.paper_alphas_nmos.a_vt0 < 0.25);
  Alcotest.(check bool) "a2 within 15%" true
    (rel p.bpv_nmos.alphas.a_l V.paper_alphas_nmos.a_l < 0.15);
  Alcotest.(check bool) "pmos a1 within 25%" true
    (rel p.bpv_pmos.alphas.a_vt0 V.paper_alphas_pmos.a_vt0 < 0.25)

let test_pipeline_validation_sigma_match () =
  let lazy p = pipeline in
  let rng = Rng.create ~seed:8 in
  let golden =
    Mc.of_bsim ~label:"golden" p.golden_nmos ~rng ~n:800 ~w_nm:600.0
      ~l_nm:40.0 ~vdd:p.vdd
  in
  let vs =
    Mc.of_vs ~label:"vs" p.vs_nmos ~rng ~n:800 ~w_nm:600.0 ~l_nm:40.0
      ~vdd:p.vdd
  in
  let rel a b = Float.abs (a -. b) /. b in
  Alcotest.(check bool) "sigma idsat within 12%" true
    (rel (D.std vs.idsat) (D.std golden.idsat) < 0.12);
  Alcotest.(check bool) "sigma logioff within 12%" true
    (rel (D.std vs.log10_ioff) (D.std golden.log10_ioff) < 0.12)

let test_pipeline_techs () =
  let lazy p = pipeline in
  let rng = Rng.create ~seed:9 in
  let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd:p.vdd in
  let d1 = tech.nmos ~w_nm:300.0 in
  let d2 = tech.nmos ~w_nm:300.0 in
  (* Each call must be a fresh mismatch draw. *)
  let i1 = Vstat_device.Metrics.idsat d1 ~vdd in
  let i2 = Vstat_device.Metrics.idsat d2 ~vdd in
  Alcotest.(check bool) "independent draws" true
    (not (Float.equal i1 i2));
  let nom = Vstat_core.Techs.nominal_vs p ~vdd:p.vdd in
  let j1 = Vstat_device.Metrics.idsat (nom.nmos ~w_nm:300.0) ~vdd in
  let j2 = Vstat_device.Metrics.idsat (nom.nmos ~w_nm:300.0) ~vdd in
  check_float ~eps:1e-18 "nominal repeats" j1 j2

(* Every float a build produces, as bits: both fitted cards, every
   observed sigma and both BPV alpha sets. *)
let pipeline_bits (p : P.t) =
  let obs (o : Bpv.observation) =
    [ o.sigma_idsat; o.sigma_log10_ioff; o.sigma_cgg ]
  in
  let alphas (a : V.alphas) = [ a.a_vt0; a.a_l; a.a_w; a.a_mu; a.a_cinv ] in
  bits
    (fitted_params p.fit_nmos @ fitted_params p.fit_pmos
    @ List.concat_map obs (p.observations_nmos @ p.observations_pmos)
    @ alphas p.bpv_nmos.alphas @ alphas p.bpv_pmos.alphas)

(* A deadline that has already fired stops the first golden sweep while
   the NMOS fit runs on its own domain: the build fails typed, and the
   next plain build is bit-identical to one made before the failure. *)
let test_pipeline_deadline () =
  let module C = Vstat_runtime.Checkpoint in
  let build () = P.build ~seed:42 ~jobs:2 ~mc_per_geometry:50 () in
  let fresh = pipeline_bits (build ()) in
  let saved = C.controls () in
  (match
     Fun.protect
       ~finally:(fun () -> C.set_controls saved)
       (fun () ->
         C.set_controls { saved with deadline = Some (fun () -> true) };
         build ())
   with
  | _ -> Alcotest.fail "expected Too_few_samples"
  | exception C.Too_few_samples { label; completed; needed; n } ->
    Alcotest.(check string) "first sweep" "bpv-nmos-w120-l40" label;
    Alcotest.(check (list int)) "completed, needed, n" [ 0; 2; 50 ]
      [ completed; needed; n ]);
  Alcotest.(check (list int64)) "plain build after" fresh
    (pipeline_bits (build ()))

(* --- Inter_die --- *)

let test_inter_die_draw_deterministic () =
  let spec = Vstat_core.Inter_die.default_40nm in
  let a = Vstat_core.Inter_die.draw spec (Rng.create ~seed:1) in
  let b = Vstat_core.Inter_die.draw spec (Rng.create ~seed:1) in
  check_float ~eps:1e-18 "same die shift" a.g_dvt0 b.g_dvt0

let test_inter_die_apply_shifts_vt () =
  (* A die with g_dvt0 = 20 mV is the nominal card shifted by exactly
     +0.02 V of VT0 and nothing else, with the local draw (seed 9) on top. *)
  let lazy p = pipeline in
  let module S = Vstat_core.Vs_statistical in
  let die = { Vstat_core.Inter_die.g_dvt0 = 0.02; g_dl_nm = 0.0; g_dmu_rel = 0.0 } in
  let tech = Vstat_core.Inter_die.die_tech p ~die ~rng:(Rng.create ~seed:9) ~vdd in
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let m = p.vs_nmos in
  let shifted =
    S.apply_shifts (m.nominal ~w_nm:600.0 ~l_nm) { S.zero_shifts with dvt0 = 0.02 }
  in
  let local = S.draw_shifts m (Rng.create ~seed:9) ~w_nm:600.0 ~l_nm in
  let expected =
    Vstat_device.Vs_model.device ~polarity:m.polarity (S.apply_shifts shifted local)
  in
  Alcotest.(check int64) "vt0 shifted by die"
    (Int64.bits_of_float (Vstat_device.Metrics.idsat expected ~vdd))
    (Int64.bits_of_float (Vstat_device.Metrics.idsat (tech.nmos ~w_nm:600.0) ~vdd))

let test_inter_die_variance_subtraction () =
  (* Synthetic: total = within (+) independent global; eq. (1) must recover
     the global sigma. *)
  let rng = Rng.create ~seed:30 in
  let n = 20_000 in
  let within = Array.init n (fun _ -> Rng.gaussian_scaled rng ~mean:10.0 ~sigma:1.0) in
  let total =
    Array.init n (fun _ ->
        Rng.gaussian_scaled rng ~mean:10.0 ~sigma:1.0
        +. Rng.gaussian_scaled rng ~mean:0.0 ~sigma:0.5)
  in
  let implied = Vstat_core.Inter_die.decompose_variance ~total ~within in
  check_float ~eps:0.05 "eq. (1) recovers global sigma" 0.5 implied

let test_inter_die_clamps_negative () =
  (* If "total" happens to be tighter than "within" (sampling noise), the
     subtraction must clamp at zero, not go NaN. *)
  let a = [| 1.0; 2.0; 3.0 |] and b = [| 0.0; 5.0; 10.0 |] in
  check_float "clamped" 0.0 (Vstat_core.Inter_die.decompose_variance ~total:a ~within:b)

(* --- qcheck --- *)

let prop_sigmas_positive =
  QCheck.Test.make ~name:"Pelgrom sigmas positive for all geometries"
    ~count:200
    QCheck.(pair (float_range 50.0 5000.0) (float_range 20.0 500.0))
    (fun (w_nm, l_nm) ->
      let s = V.sigmas_of_alphas V.paper_alphas_nmos ~w_nm ~l_nm in
      s.s_vt0 > 0.0 && s.s_l > 0.0 && s.s_w > 0.0 && s.s_mu > 0.0
      && s.s_cinv > 0.0)

let prop_sampled_devices_finite =
  QCheck.Test.make ~name:"sampled VS devices produce finite metrics"
    ~count:100 QCheck.(int_range 0 100000)
    (fun seed ->
      let rng = Rng.create ~seed in
      let d = Vss.sample_device Vss.seed_nmos rng ~w_nm:300.0 ~l_nm:40.0 in
      Float.is_finite (Vstat_device.Metrics.idsat d ~vdd)
      && Float.is_finite (Vstat_device.Metrics.log10_ioff d ~vdd))

let () =
  Alcotest.run "vstat_core"
    [
      ( "variation",
        [
          Alcotest.test_case "Pelgrom forms" `Quick test_pelgrom_forms;
          Alcotest.test_case "area law" `Quick test_pelgrom_area_law;
          Alcotest.test_case "bad geometry" `Quick test_pelgrom_rejects_bad_geometry;
          Alcotest.test_case "vxo shift" `Quick test_vxo_shift_formula;
          QCheck_alcotest.to_alcotest prop_sigmas_positive;
        ] );
      ( "vs-statistical",
        [
          Alcotest.test_case "identity shifts" `Quick test_apply_shifts_identity;
          Alcotest.test_case "length coupling" `Quick test_apply_shifts_length_coupling;
          Alcotest.test_case "mobility coupling" `Quick test_apply_shifts_mobility_coupling;
          Alcotest.test_case "deterministic" `Quick test_sampling_deterministic;
          Alcotest.test_case "sampled spread" `Slow test_sampling_spread_matches_alphas;
          QCheck_alcotest.to_alcotest prop_sampled_devices_finite;
        ] );
      ( "bsim-statistical",
        [ Alcotest.test_case "perturbs all" `Quick test_bsim_sampling_perturbs_all ] );
      ( "sensitivity",
        [
          Alcotest.test_case "signs" `Quick test_sensitivity_signs;
          Alcotest.test_case "subthreshold slope" `Quick test_subthreshold_slope_sensitivity;
        ] );
      ( "bpv",
        [
          Alcotest.test_case "roundtrip" `Quick test_bpv_roundtrip_exact;
          Alcotest.test_case "LER tie" `Quick test_bpv_tie_enforced;
          Alcotest.test_case "untied" `Quick test_bpv_untied_variant;
          Alcotest.test_case "empty rejected" `Quick test_bpv_empty_rejected;
          Alcotest.test_case "contribution quadrature" `Quick test_contribution_breakdown_quadrature;
        ] );
      ( "extract-nominal",
        [
          Alcotest.test_case "fit quality" `Slow test_fit_improves_on_seed;
          Alcotest.test_case "fit physical" `Slow test_fit_physical_parameters;
          Alcotest.test_case "retarget" `Slow test_fit_params_retarget;
          Alcotest.test_case "golden cards" `Slow test_fit_golden_cards;
        ] );
      ( "mc-device",
        [
          Alcotest.test_case "shapes" `Quick test_mc_device_shapes;
          Alcotest.test_case "width scaling" `Slow test_mc_sigma_shrinks_with_width;
        ] );
      ( "inter-die",
        [
          Alcotest.test_case "deterministic draw" `Quick test_inter_die_draw_deterministic;
          Alcotest.test_case "vt shift" `Quick test_inter_die_apply_shifts_vt;
          Alcotest.test_case "variance subtraction" `Slow test_inter_die_variance_subtraction;
          Alcotest.test_case "clamps" `Quick test_inter_die_clamps_negative;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "extraction near truth" `Slow test_pipeline_extraction_close_to_truth;
          Alcotest.test_case "sigma validation" `Slow test_pipeline_validation_sigma_match;
          Alcotest.test_case "techs" `Slow test_pipeline_techs;
          Alcotest.test_case "deadline" `Slow test_pipeline_deadline;
        ] );
    ]
