type row = {
  vdd : float;
  golden_sigma_idsat : float;
  transfer_sigma_idsat : float;
  reextract_sigma_idsat : float;
  golden_sigma_logioff : float;
  transfer_sigma_logioff : float;
  reextract_sigma_logioff : float;
}

type t = { w_nm : float; l_nm : float; n : int; rows : row list }

let vdds = [ 0.9; 0.7; 0.55 ]

let run ?(n = 1500) ?(seed = 47) (p : Vstat_core.Pipeline.t) =
  let w_nm = 600.0 and l_nm = Vstat_device.Cards.l_nominal_nm in
  let rng = Vstat_util.Rng.create ~seed in
  let rows =
    List.map
      (fun vdd ->
        let run_label what = Printf.sprintf "ablation-vdd%.2f-%s" vdd what in
        let golden =
          Vstat_core.Mc_device.of_bsim ~label:(run_label "golden")
            p.golden_nmos ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd
        in
        (* (a) alphas extracted at the nominal supply, used as-is. *)
        let transfer =
          Vstat_core.Mc_device.of_vs ~label:(run_label "transfer") p.vs_nmos
            ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd
        in
        (* (b) a fresh BPV at this supply (observations and sensitivities
           both taken at vdd). *)
        let observations =
          List.map
            (fun (w_nm, l_nm) ->
              Vstat_core.Bpv.observe_golden
                ~label:(run_label (Printf.sprintf "bpv-w%g-l%g" w_nm l_nm))
                p.golden_nmos ~rng:(Vstat_util.Rng.split rng) ~n ~vdd ~w_nm
                ~l_nm)
            p.geometries
        in
        let options = p.bpv_nmos.options in
        let re =
          Vstat_core.Bpv.extract ~vs:p.vs_nmos ~vdd ~options observations
        in
        let vs_re = { p.vs_nmos with alphas = re.alphas } in
        let reextract =
          Vstat_core.Mc_device.of_vs ~label:(run_label "reextract") vs_re
            ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd
        in
        let std = Vstat_stats.Descriptive.std in
        {
          vdd;
          golden_sigma_idsat = std golden.idsat;
          transfer_sigma_idsat = std transfer.idsat;
          reextract_sigma_idsat = std reextract.idsat;
          golden_sigma_logioff = std golden.log10_ioff;
          transfer_sigma_logioff = std transfer.log10_ioff;
          reextract_sigma_logioff = std reextract.log10_ioff;
        })
      vdds
  in
  { w_nm; l_nm; n; rows }

let worst_transfer_error t =
  List.fold_left
    (fun acc r ->
      let e1 =
        Float.abs (r.transfer_sigma_idsat -. r.golden_sigma_idsat)
        /. r.golden_sigma_idsat
      in
      let e2 =
        Float.abs (r.transfer_sigma_logioff -. r.golden_sigma_logioff)
        /. r.golden_sigma_logioff
      in
      Float.max acc (Float.max e1 e2))
    0.0 t.rows

let pp ppf t =
  Format.fprintf ppf
    "Ablation: Vdd transfer of the statistical model (NMOS %.0f/%.0f, n=%d)@\n"
    t.w_nm t.l_nm t.n;
  Vstat_util.Floatx.pp_table ppf
    ~header:
      [
        "Vdd"; "sIdsat gold (uA)"; "transfer"; "re-extract";
        "slogIoff gold"; "transfer"; "re-extract";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             Printf.sprintf "%.2f" r.vdd;
             Printf.sprintf "%.2f" (1e6 *. r.golden_sigma_idsat);
             Printf.sprintf "%.2f" (1e6 *. r.transfer_sigma_idsat);
             Printf.sprintf "%.2f" (1e6 *. r.reextract_sigma_idsat);
             Printf.sprintf "%.3f" r.golden_sigma_logioff;
             Printf.sprintf "%.3f" r.transfer_sigma_logioff;
             Printf.sprintf "%.3f" r.reextract_sigma_logioff;
           ])
         t.rows);
  Format.fprintf ppf
    "worst transfer error = %.1f%%  (paper: one nominal-Vdd extraction is@\n\
    \ enough; the transfer column should track golden nearly as well as@\n\
    \ the re-extraction column)@\n"
    (100.0 *. worst_transfer_error t)
