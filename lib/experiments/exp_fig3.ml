type row = {
  w_nm : float;
  total_pct : float;
  predicted_pct : float;
  vt0_pct : float;
  geometry_pct : float;
  mu_pct : float;
  cinv_pct : float;
}

type t = { l_nm : float; rows : row list }

let widths = [ 120.0; 300.0; 600.0; 1000.0; 1500.0 ]

let run ?(n = 1500) ?(seed = 11) (p : Vstat_core.Pipeline.t) =
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let rng = Vstat_util.Rng.create ~seed in
  let rows =
    List.map
      (fun w_nm ->
        let samples =
          Vstat_core.Mc_device.of_vs
            ~label:(Printf.sprintf "fig3-w%g" w_nm)
            p.vs_nmos ~rng ~n ~w_nm ~l_nm ~vdd:p.vdd
        in
        let mean = Vstat_stats.Descriptive.mean samples.idsat in
        let total_pct =
          100.0 *. Vstat_stats.Descriptive.std samples.idsat /. mean
        in
        let contributions =
          Vstat_core.Bpv.contribution_breakdown ~vs:p.vs_nmos
            ~alphas:p.bpv_nmos.alphas ~vdd:p.vdd ~w_nm ~l_nm
            Vstat_core.Sensitivity.Idsat
        in
        let get param =
          match List.assoc_opt param contributions with
          | Some c -> 100.0 *. c /. mean
          | None -> 0.0
        in
        let predicted =
          Vstat_core.Bpv.predicted_sigma ~vs:p.vs_nmos
            ~alphas:p.bpv_nmos.alphas ~vdd:p.vdd ~w_nm ~l_nm
            Vstat_core.Sensitivity.Idsat
        in
        {
          w_nm;
          total_pct;
          predicted_pct = 100.0 *. predicted /. mean;
          vt0_pct = get `Vt0;
          geometry_pct = Float.hypot (get `L) (get `W);
          mu_pct = get `Mu;
          cinv_pct = get `Cinv;
        })
      widths
  in
  { l_nm; rows }

let pp ppf t =
  Format.fprintf ppf
    "Fig.3: Idsat mismatch and process-parameter contributions (L=%.0fnm)@\n"
    t.l_nm;
  Vstat_util.Floatx.pp_table ppf
    ~header:
      [ "W (nm)"; "sigma/mu %"; "pred %"; "VT0 %"; "L&W %"; "mu %"; "Cinv %" ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.0f" r.w_nm;
             Printf.sprintf "%.2f" r.total_pct;
             Printf.sprintf "%.2f" r.predicted_pct;
             Printf.sprintf "%.2f" r.vt0_pct;
             Printf.sprintf "%.2f" r.geometry_pct;
             Printf.sprintf "%.2f" r.mu_pct;
             Printf.sprintf "%.2f" r.cinv_pct;
           ])
         t.rows)
