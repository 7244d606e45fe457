module Vs = Vstat_device.Vs_model
module Dm = Vstat_device.Device_model

type dataset = {
  transfer : (float * float * float) array;
  output : (float * float * float) array;
  cv : (float * float) array;
  gm : (float * float) array;
}

let current dev ~vgs ~vds ~vdd =
  let curve = Vstat_device.Metrics.id_vg_curve dev ~vds ~vgs_points:[| vgs |] in
  ignore vdd;
  snd curve.(0)

let golden_dataset dev ~vdd =
  let vgs_grid = Vstat_util.Floatx.linspace 0.0 vdd 21 in
  let transfer =
    Array.concat
      (List.map
         (fun vds ->
           Array.map (fun vgs -> (vgs, vds, current dev ~vgs ~vds ~vdd)) vgs_grid)
         [ 0.05; vdd ])
  in
  let vds_grid = Vstat_util.Floatx.linspace 0.02 vdd 13 in
  let output_family =
    Array.concat
      (List.map
         (fun frac ->
           let vgs = frac *. vdd in
           Array.map (fun vds -> (vgs, vds, current dev ~vgs ~vds ~vdd)) vds_grid)
         [ 0.33; 0.41; 0.5; 0.66; 0.83; 1.0 ])
  in
  (* Strong-inversion transfer points in linear space: constrain the Id(Vg)
     shape (hence gm) at high drain bias, which the log-space transfer set
     barely weighs.  gm fidelity matters because BPV divides measured
     variances by squared sensitivities. *)
  (* Deep-triode points: the SRAM read divider (pull-down in triode vs
     access in saturation) lives at vds < 100 mV, where a handful of family
     points carry too little least-squares weight on their own. *)
  let triode_points =
    Array.concat
      (List.map
         (fun vds ->
           Array.map
             (fun frac ->
               let vgs = frac *. vdd in
               (vgs, vds, current dev ~vgs ~vds ~vdd))
             [| 0.55; 0.7; 0.85; 1.0 |])
         [ 0.03; 0.06; 0.1 ])
  in
  let gm_points =
    Array.map
      (fun vgs -> (vgs, vdd, current dev ~vgs ~vds:vdd ~vdd))
      (Vstat_util.Floatx.linspace (0.45 *. vdd) vdd 10)
  in
  let output = Array.concat [ output_family; gm_points; triode_points ] in
  (* Explicit transconductance targets: Id-value fitting leaves gm free to
     drift by 10-20 %, and BPV divides variances by squared sensitivities,
     so gm fidelity directly controls how well the extracted statistics
     transfer to circuits. *)
  let gm_of dev vgs =
    match dev.Vstat_device.Device_model.polarity with
    | Vstat_device.Device_model.Nmos ->
      Float.abs (Vstat_device.Device_model.gm dev ~vg:vgs ~vd:vdd ~vs:0.0 ~vb:0.0)
    | Vstat_device.Device_model.Pmos ->
      Float.abs
        (Vstat_device.Device_model.gm dev ~vg:(vdd -. vgs) ~vd:0.0 ~vs:vdd
           ~vb:vdd)
  in
  let gm =
    Array.map
      (fun vgs -> (vgs, gm_of dev vgs))
      (Vstat_util.Floatx.linspace (0.4 *. vdd) vdd 9)
  in
  (* Gate-capacitance curve at Vds = 0: pins the threshold/charge linkage
     that pure I-V fitting leaves degenerate (vt0 can trade against vxo for
     current but not for charge). *)
  let cv =
    Array.map
      (fun vgs ->
        let cgg =
          match dev.Vstat_device.Device_model.polarity with
          | Vstat_device.Device_model.Nmos ->
            Vstat_device.Device_model.cgg dev ~vg:vgs ~vd:0.0 ~vs:0.0 ~vb:0.0
          | Vstat_device.Device_model.Pmos ->
            Vstat_device.Device_model.cgg dev ~vg:(vdd -. vgs) ~vd:vdd ~vs:vdd
              ~vb:vdd
        in
        (vgs, Float.abs cgg))
      (Vstat_util.Floatx.linspace 0.0 vdd 13)
  in
  { transfer; output; cv; gm }

let objective ~polarity dataset (p : Vs.params) =
  let dev = Vs.device ~polarity p in
  let vdd = Vstat_device.Cards.vdd_nominal in
  let log_floor = 1e-14 in
  let n_t = Array.length dataset.transfer in
  let n_o = Array.length dataset.output in
  let acc = ref 0.0 in
  Array.iter
    (fun (vgs, vds, id_ref) ->
      let id = current dev ~vgs ~vds ~vdd in
      let e =
        log10 (Float.max id log_floor) -. log10 (Float.max id_ref log_floor)
      in
      acc := !acc +. (e *. e))
    dataset.transfer;
  let log_term = !acc /. Float.of_int n_t in
  let id_max =
    Array.fold_left (fun m (_, _, id) -> Float.max m id) 1e-12 dataset.output
  in
  acc := 0.0;
  Array.iter
    (fun (vgs, vds, id_ref) ->
      let id = current dev ~vgs ~vds ~vdd in
      let e = (id -. id_ref) /. (id_ref +. (0.02 *. id_max)) in
      acc := !acc +. (e *. e))
    dataset.output;
  let rel_term = !acc /. Float.of_int n_o in
  let cgg_max =
    Array.fold_left (fun m (_, c) -> Float.max m c) 1e-18 dataset.cv
  in
  acc := 0.0;
  Array.iter
    (fun (vgs, cgg_ref) ->
      let cgg =
        match polarity with
        | Vstat_device.Device_model.Nmos ->
          Vstat_device.Device_model.cgg dev ~vg:vgs ~vd:0.0 ~vs:0.0 ~vb:0.0
        | Vstat_device.Device_model.Pmos ->
          Vstat_device.Device_model.cgg dev ~vg:(vdd -. vgs) ~vd:vdd ~vs:vdd
            ~vb:vdd
      in
      let e = (Float.abs cgg -. cgg_ref) /. cgg_max in
      acc := !acc +. (e *. e))
    dataset.cv;
  let cv_term = !acc /. Float.of_int (Array.length dataset.cv) in
  let gm_of dev vgs =
    match polarity with
    | Vstat_device.Device_model.Nmos ->
      Float.abs (Vstat_device.Device_model.gm dev ~vg:vgs ~vd:vdd ~vs:0.0 ~vb:0.0)
    | Vstat_device.Device_model.Pmos ->
      Float.abs
        (Vstat_device.Device_model.gm dev ~vg:(vdd -. vgs) ~vd:0.0 ~vs:vdd
           ~vb:vdd)
  in
  let gm_max =
    Array.fold_left (fun m (_, g) -> Float.max m g) 1e-12 dataset.gm
  in
  acc := 0.0;
  Array.iter
    (fun (vgs, gm_ref) ->
      let e = (gm_of dev vgs -. gm_ref) /. gm_max in
      acc := !acc +. (e *. e))
    dataset.gm;
  let gm_term = !acc /. Float.of_int (Array.length dataset.gm) in
  (* Ioff anchor: the off-state point (vgs = 0, vds = Vdd) sets the absolute
     leakage scale of every circuit figure, so it gets its own term instead
     of being one of 42 log-space points. *)
  let ioff_term =
    match
      Array.find_opt
        (fun (vgs, vds, _) -> Float.equal vgs 0.0 && Float.equal vds vdd)
        dataset.transfer
    with
    | None -> 0.0
    | Some (vgs, vds, id_ref) ->
      let id = current dev ~vgs ~vds ~vdd in
      let e =
        log10 (Float.max id log_floor) -. log10 (Float.max id_ref log_floor)
      in
      e *. e
  in
  (* Weights settled empirically against circuit-level agreement: C-V
     dominates because load charge drives delay; the log (subthreshold)
     term only needs to pin the slope; the gm term is kept at zero weight by
     default (weighting it trades Id/charge accuracy for gm and degrades
     delay distributions) but remains available for ablation studies. *)
  (0.5 *. log_term) +. rel_term +. (2.0 *. cv_term) +. (0.0 *. gm_term)
  +. (8.0 *. ioff_term)

type result = {
  fitted : Vs.params;
  params_of : w_nm:float -> l_nm:float -> Vs.params;
  rms_log_error : float;
  rms_rel_error : float;
  iterations : int;
}

(* Free parameters packed as
   [vt0; log delta0; log (n0 - 1); log vxo; log mu; log beta; log l_scale]:
   the log transforms keep physically-positive quantities positive without
   constrained optimization.  l_scale (the DIBL roll-up length) is only
   observable because the fit spans several geometries. *)
(* alpha_q below ~1.5 degenerates the Ff transition into a step (bad for
   Newton); above ~6 it smears the threshold unphysically. *)
let alpha_q_floor = 1.5

let pack (p : Vs.params) =
  [|
    p.vt0;
    log p.dibl.delta0;
    log (p.n0 -. 1.0);
    log p.vxo;
    log p.mu;
    log p.beta;
    log (Float.max (p.alpha_q -. alpha_q_floor) 1e-6);
  |]

let unpack (seed : Vs.params) x =
  {
    seed with
    Vs.vt0 = x.(0);
    dibl = { seed.dibl with delta0 = exp x.(1) };
    n0 = 1.0 +. exp x.(2);
    vxo = exp x.(3);
    mu = exp x.(4);
    beta = exp x.(5);
    alpha_q = alpha_q_floor +. exp x.(6);
  }

(* The paper's BPV sweep varies width at fixed L = 40 nm (its Figs. 2-3 are
   width sweeps), and the VS card is geometry-portable in W by construction,
   so the nominal fit uses the primary device W/L = 300/40 nm only; the DIBL
   length profile l_scale stays at its card value (characterized separately
   in practice). *)
let fit ~polarity () =
  let w_nm = 300.0 and l_nm = 40.0 in
  let vdd = Vstat_device.Cards.vdd_nominal in
  let dataset =
    golden_dataset (Vstat_device.Cards.bsim_device ~polarity ~w_nm ~l_nm) ~vdd
  in
  let seed =
    match polarity with
    | Dm.Nmos -> Vstat_device.Cards.vs_seed_nmos ~w_nm ~l_nm
    | Dm.Pmos -> Vstat_device.Cards.vs_seed_pmos ~w_nm ~l_nm
  in
  (* Take Cinv straight from the golden card ("measured" directly). *)
  let golden_cox =
    match polarity with
    | Dm.Nmos -> (Vstat_device.Cards.bsim_nmos ~w_nm ~l_nm).cox
    | Dm.Pmos -> (Vstat_device.Cards.bsim_pmos ~w_nm ~l_nm).cox
  in
  (* Body effect is characterized directly from Vt(Vsb) measurements, like
     Cinv from tox, so the golden card's values transfer verbatim. *)
  let golden_body =
    match polarity with
    | Dm.Nmos ->
      let c = Vstat_device.Cards.bsim_nmos ~w_nm ~l_nm in
      (c.k1, c.phis)
    | Dm.Pmos ->
      let c = Vstat_device.Cards.bsim_pmos ~w_nm ~l_nm in
      (c.k1, c.phis)
  in
  let seed =
    { seed with
      Vs.cinv = golden_cox;
      gamma_body = fst golden_body;
      phib = snd golden_body;
    }
  in
  let retarget p ~w_nm ~l_nm =
    { p with Vs.w = Vstat_device.Cards.nm w_nm; l = Vstat_device.Cards.nm l_nm }
  in
  let f x =
    objective ~polarity dataset (retarget (unpack seed x) ~w_nm ~l_nm)
  in
  let r =
    Vstat_opt.Nelder_mead.minimize_restarts ~restarts:3 ~max_iter:4000 ~f
      ~x0:(pack seed) ()
  in
  let fitted = unpack seed r.x in
  let dev = Vs.device ~polarity fitted in
  let log_errs =
    Array.map
      (fun (vgs, vds, id_ref) ->
        let id = current dev ~vgs ~vds ~vdd in
        log10 (Float.max id 1e-14) -. log10 (Float.max id_ref 1e-14))
      dataset.transfer
  in
  let id_max =
    Array.fold_left (fun m (_, _, id) -> Float.max m id) 1e-12 dataset.output
  in
  let rel_errs =
    Array.map
      (fun (vgs, vds, id_ref) ->
        let id = current dev ~vgs ~vds ~vdd in
        (id -. id_ref) /. (id_ref +. (0.02 *. id_max)))
      dataset.output
  in
  let rms xs =
    sqrt
      (Array.fold_left (fun a e -> a +. (e *. e)) 0.0 xs
      /. Float.of_int (Array.length xs))
  in
  {
    fitted;
    params_of = (fun ~w_nm ~l_nm -> retarget fitted ~w_nm ~l_nm);
    rms_log_error = rms log_errs;
    rms_rel_error = rms rel_errs;
    iterations = r.iterations;
  }
