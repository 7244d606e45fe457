type observation = {
  w_nm : float;
  l_nm : float;
  sigma_idsat : float;
  sigma_log10_ioff : float;
  sigma_cgg : float;
}

let observe_golden ?jobs ?fingerprint ~label golden ~rng ~n ~vdd ~w_nm ~l_nm =
  let s =
    Mc_device.of_bsim ?jobs ?fingerprint ~label golden ~rng ~n ~w_nm ~l_nm ~vdd
  in
  let acc_idsat, acc_log10_ioff, acc_cgg = Mc_device.summary s in
  {
    w_nm;
    l_nm;
    sigma_idsat = Vstat_runtime.Accum.std acc_idsat;
    sigma_log10_ioff = Vstat_runtime.Accum.std acc_log10_ioff;
    sigma_cgg = Vstat_runtime.Accum.std acc_cgg;
  }

type options = {
  tie_l_w : bool;
  known_cinv_alpha : float;
  weight_idsat : float;
  weight_log10_ioff : float;
  weight_cgg : float;
}

let default_options =
  {
    tie_l_w = true;
    known_cinv_alpha = 0.29;
    weight_idsat = 2.0;
    weight_log10_ioff = 1.0;
    weight_cgg = 1.0;
  }

let metric_weight options = function
  | Sensitivity.Idsat -> options.weight_idsat
  | Sensitivity.Log10_ioff -> options.weight_log10_ioff
  | Sensitivity.Cgg -> options.weight_cgg

type result = {
  alphas : Variation.alphas;
  residual : float;
  rows : int;
  options : options;
}

let measured_sigma obs = function
  | Sensitivity.Idsat -> obs.sigma_idsat
  | Sensitivity.Log10_ioff -> obs.sigma_log10_ioff
  | Sensitivity.Cgg -> obs.sigma_cgg

(* One stacked row per (geometry, metric): the right-hand side is the
   measured variance minus the directly-measured Cinv contribution; the
   columns are the squared sensitivities times the geometry factors of
   eq. (8), so the unknowns are the squared alphas. *)
let build_system ~vs ~vdd ~options observations =
  let tie = options.tie_l_w in
  let cols = if tie then 3 else 4 in
  let rows_list =
    List.concat_map
      (fun obs ->
        let { w_nm; l_nm; _ } = obs in
        let wl = w_nm *. l_nm in
        let deriv m p = Sensitivity.vs_derivative vs ~w_nm ~l_nm ~vdd m p in
        List.map
          (fun metric ->
            let d_vt0 = deriv metric `Vt0 in
            let d_l = deriv metric `L in
            let d_w = deriv metric `W in
            let d_mu = deriv metric `Mu in
            let d_cinv = deriv metric `Cinv in
            let sigma_cinv = options.known_cinv_alpha /. sqrt wl in
            let rhs =
              (measured_sigma obs metric ** 2.0)
              -. ((d_cinv *. sigma_cinv) ** 2.0)
            in
            let col_vt0 = d_vt0 *. d_vt0 /. wl in
            let col_l = d_l *. d_l *. (l_nm /. w_nm) in
            let col_w = d_w *. d_w *. (w_nm /. l_nm) in
            let col_mu = d_mu *. d_mu /. wl in
            (* Rows span many orders of magnitude (A^2 vs decades^2 vs F^2):
               normalize each row to unit RHS, then apply the metric weight
               so it influences the least-squares compromise. *)
            let scale =
              metric_weight options metric /. Float.max (Float.abs rhs) 1e-300
            in
            let row =
              if tie then [| col_vt0; col_l +. col_w; col_mu |]
              else [| col_vt0; col_l; col_w; col_mu |]
            in
            (Array.map (fun c -> scale *. c) row, scale *. rhs))
          Sensitivity.all_metrics)
      observations
  in
  (* One list-to-array conversion up front: [List.nth] inside [Matrix.init]
     would make the fill O(rows^2). *)
  let rows_arr = Array.of_list rows_list in
  let m = Array.length rows_arr in
  let a =
    Vstat_linalg.Matrix.init ~rows:m ~cols ~f:(fun i j -> (fst rows_arr.(i)).(j))
  in
  let b = Array.map snd rows_arr in
  (a, b)

let alphas_of_solution ~options x =
  let get i = sqrt (Float.max x.(i) 0.0) in
  if options.tie_l_w then
    {
      Variation.a_vt0 = get 0;
      a_l = get 1;
      a_w = get 1;
      a_mu = get 2;
      a_cinv = options.known_cinv_alpha;
    }
  else
    {
      Variation.a_vt0 = get 0;
      a_l = get 1;
      a_w = get 2;
      a_mu = get 3;
      a_cinv = options.known_cinv_alpha;
    }

let extract ~vs ~vdd ~options observations =
  if List.is_empty observations then
    invalid_arg "Bpv.extract: no observations";
  let a, b = build_system ~vs ~vdd ~options observations in
  let x = Vstat_linalg.Nnls.solve a b in
  {
    alphas = alphas_of_solution ~options x;
    residual = Vstat_linalg.Nnls.residual_norm a x b;
    rows = Array.length b;
    options;
  }

let extract_per_geometry ~vs ~vdd ~options observations =
  List.map
    (fun obs ->
      let r = extract ~vs ~vdd ~options [ obs ] in
      (obs, r.alphas))
    observations

let contribution_breakdown ~vs ~alphas ~vdd ~w_nm ~l_nm metric =
  let s = Variation.sigmas_of_alphas alphas ~w_nm ~l_nm in
  let deriv p = Sensitivity.vs_derivative vs ~w_nm ~l_nm ~vdd metric p in
  List.map
    (fun p ->
      let sigma_p =
        match p with
        | `Vt0 -> s.Variation.s_vt0
        | `L -> s.s_l
        | `W -> s.s_w
        | `Mu -> s.s_mu
        | `Cinv -> s.s_cinv
      in
      (p, Float.abs (deriv p *. sigma_p)))
    Sensitivity.all_parameters

let predicted_sigma ~vs ~alphas ~vdd ~w_nm ~l_nm metric =
  let contributions = contribution_breakdown ~vs ~alphas ~vdd ~w_nm ~l_nm metric in
  sqrt
    (List.fold_left (fun acc (_, c) -> acc +. (c *. c)) 0.0 contributions)
