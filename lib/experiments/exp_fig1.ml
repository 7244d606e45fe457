type curve = { label : string; points : (float * float) array }

type t = {
  id_vd : (curve * curve) list;
  id_vg : (curve * curve) list;
  rms_log_error : float;
  rms_rel_error : float;
}

let run (p : Vstat_core.Pipeline.t) =
  let w_nm = 300.0 in
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let vdd = p.vdd in
  let golden =
    Vstat_core.Bsim_statistical.nominal_device p.golden_nmos ~w_nm ~l_nm
  in
  let vs = Vstat_core.Vs_statistical.nominal_device p.vs_nmos ~w_nm ~l_nm in
  let vds_grid = Vstat_util.Floatx.linspace 0.0 vdd 25 in
  let vgs_grid = Vstat_util.Floatx.linspace 0.0 vdd 25 in
  let id_vd =
    List.map
      (fun frac ->
        let vgs = frac *. vdd in
        let label model = Printf.sprintf "%s Vg=%.2f" model vgs in
        ( { label = label "golden";
            points = Vstat_device.Metrics.id_vd_curve golden ~vgs ~vds_points:vds_grid },
          { label = label "vs";
            points = Vstat_device.Metrics.id_vd_curve vs ~vgs ~vds_points:vds_grid } ))
      [ 0.33; 0.55; 0.78; 1.0 ]
  in
  let id_vg =
    List.map
      (fun vds ->
        let label model = Printf.sprintf "%s Vd=%.2f" model vds in
        ( { label = label "golden";
            points = Vstat_device.Metrics.id_vg_curve golden ~vds ~vgs_points:vgs_grid },
          { label = label "vs";
            points = Vstat_device.Metrics.id_vg_curve vs ~vds ~vgs_points:vgs_grid } ))
      [ 0.05; vdd ]
  in
  {
    id_vd;
    id_vg;
    rms_log_error = p.fit_nmos.rms_log_error;
    rms_rel_error = p.fit_pmos.rms_rel_error;
  }

let pp ppf t =
  Format.fprintf ppf
    "Fig.1: VS fit to golden I-V (NMOS, W=300nm)@\n\
     fit quality: rms log error = %.4f decades, rms rel error = %.4f@\n@\n"
    t.rms_log_error t.rms_rel_error;
  let pp_pair (g, v) =
    let rel_errors =
      Array.map2
        (fun (_, ig) (_, iv) ->
          Float.abs (iv -. ig) /. Float.max (Float.abs ig) 1e-12)
        g.points v.points
    in
    let worst = Array.fold_left Float.max 0.0 rel_errors in
    let spark =
      Vstat_stats.Histogram.sparkline (Array.map snd v.points)
    in
    Format.fprintf ppf "  %-18s |%s| worst rel err vs golden = %5.1f%%@\n"
      v.label spark (100.0 *. worst)
  in
  Format.fprintf ppf "Id-Vd family (VS curves, golden compared pointwise):@\n";
  List.iter pp_pair t.id_vd;
  Format.fprintf ppf "Id-Vg transfer (log-axis comparison):@\n";
  List.iter
    (fun (g, v) ->
      let log_errors =
        Array.map2
          (fun (_, ig) (_, iv) ->
            Float.abs
              (Vstat_util.Floatx.log10_safe iv -. Vstat_util.Floatx.log10_safe ig))
          g.points v.points
      in
      let worst = Array.fold_left Float.max 0.0 log_errors in
      let spark =
        Vstat_stats.Histogram.sparkline
          (Array.map (fun (_, i) -> Vstat_util.Floatx.log10_safe i) v.points)
      in
      Format.fprintf ppf "  %-18s |%s| worst log10 err = %.3f decades@\n"
        v.label spark worst)
    t.id_vg
