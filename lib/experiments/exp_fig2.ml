type row = {
  w_nm : float;
  l_nm : float;
  diff_vt0_pct : float;
  diff_leff_pct : float;
  diff_weff_pct : float;
}

type t = { rows : row list; max_abs_diff_pct : float }

let run (p : Vstat_core.Pipeline.t) =
  let stacked = p.bpv_nmos.alphas in
  let per_geometry =
    Vstat_core.Bpv.extract_per_geometry ~vs:p.vs_nmos ~vdd:p.vdd
      ~options:p.bpv_nmos.options p.observations_nmos
  in
  let pct individual reference =
    if Float.equal reference 0.0 then 0.0
    else 100.0 *. (individual -. reference) /. reference
  in
  let rows =
    List.map
      (fun ((obs : Vstat_core.Bpv.observation), (a : Vstat_core.Variation.alphas)) ->
        (* sigma ratios at a fixed geometry equal the alpha ratios. *)
        {
          w_nm = obs.w_nm;
          l_nm = obs.l_nm;
          diff_vt0_pct = pct a.a_vt0 stacked.a_vt0;
          diff_leff_pct = pct a.a_l stacked.a_l;
          diff_weff_pct = pct a.a_w stacked.a_w;
        })
      per_geometry
  in
  let max_abs_diff_pct =
    List.fold_left
      (fun acc r ->
        List.fold_left Float.max acc
          (List.map Float.abs
             [ r.diff_vt0_pct; r.diff_leff_pct; r.diff_weff_pct ]))
      0.0 rows
  in
  { rows; max_abs_diff_pct }

let pp ppf t =
  Format.fprintf ppf
    "Fig.2: per-geometry vs stacked BPV extraction (%% difference)@\n";
  let rows =
    List.map
      (fun r ->
        [
          Printf.sprintf "%.0f/%.0f" r.w_nm r.l_nm;
          Printf.sprintf "%+.2f" r.diff_vt0_pct;
          Printf.sprintf "%+.2f" r.diff_leff_pct;
          Printf.sprintf "%+.2f" r.diff_weff_pct;
        ])
      t.rows
  in
  Vstat_util.Floatx.pp_table ppf
    ~header:[ "W/L (nm)"; "dVT0 %"; "dLeff %"; "dWeff %" ]
    ~rows;
  Format.fprintf ppf "max |diff| = %.2f%%  (paper: < 10%%)@\n"
    t.max_abs_diff_pct
