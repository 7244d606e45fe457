type entry = {
  label : string;
  w_nm : float;
  l_nm : float;
  polarity : [ `N | `P ];
  bsim_sigma_idsat : float;
  vs_sigma_idsat : float;
  bsim_sigma_logioff : float;
  vs_sigma_logioff : float;
}

type t = { n : int; entries : entry list }

let geometries = [ ("Wide", 1500.0); ("Medium", 600.0); ("Short", 120.0) ]

let run ?(n = 1500) ?(seed = 13) (p : Vstat_core.Pipeline.t) =
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  let rng = Vstat_util.Rng.create ~seed in
  let entries =
    List.concat_map
      (fun (label, w_nm) ->
        List.map
          (fun polarity ->
            let golden, vs =
              match polarity with
              | `N -> (p.golden_nmos, p.vs_nmos)
              | `P -> (p.golden_pmos, p.vs_pmos)
            in
            let run_label model =
              Printf.sprintf "table3-%s-%s-%s" label
                (match polarity with `N -> "N" | `P -> "P")
                model
            in
            let b =
              Vstat_core.Mc_device.of_bsim ~label:(run_label "golden") golden
                ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd:p.vdd
            in
            let v =
              Vstat_core.Mc_device.of_vs ~label:(run_label "vs") vs
                ~rng:(Vstat_util.Rng.split rng) ~n ~w_nm ~l_nm ~vdd:p.vdd
            in
            {
              label;
              w_nm;
              l_nm;
              polarity;
              bsim_sigma_idsat = Vstat_stats.Descriptive.std b.idsat;
              vs_sigma_idsat = Vstat_stats.Descriptive.std v.idsat;
              bsim_sigma_logioff = Vstat_stats.Descriptive.std b.log10_ioff;
              vs_sigma_logioff = Vstat_stats.Descriptive.std v.log10_ioff;
            })
          [ `N; `P ])
      geometries
  in
  { n; entries }

let worst_rel_diff t =
  List.fold_left
    (fun acc e ->
      let d1 =
        Float.abs (e.vs_sigma_idsat -. e.bsim_sigma_idsat)
        /. e.bsim_sigma_idsat
      in
      let d2 =
        Float.abs (e.vs_sigma_logioff -. e.bsim_sigma_logioff)
        /. e.bsim_sigma_logioff
      in
      Float.max acc (Float.max d1 d2))
    0.0 t.entries

let pp ppf t =
  Format.fprintf ppf
    "Table III: MC sigma comparison, VS vs golden (n=%d per cell)@\n" t.n;
  Vstat_util.Floatx.pp_table ppf
    ~header:
      [
        "device"; "W/L"; "pol"; "sIdsat bsim (uA)"; "sIdsat VS (uA)";
        "slogIoff bsim"; "slogIoff VS";
      ]
    ~rows:
      (List.map
         (fun e ->
           [
             e.label;
             Printf.sprintf "%.0f/%.0f" e.w_nm e.l_nm;
             (match e.polarity with `N -> "N" | `P -> "P");
             Printf.sprintf "%.2f" (e.bsim_sigma_idsat *. 1e6);
             Printf.sprintf "%.2f" (e.vs_sigma_idsat *. 1e6);
             Printf.sprintf "%.3f" e.bsim_sigma_logioff;
             Printf.sprintf "%.3f" e.vs_sigma_logioff;
           ])
         t.entries);
  Format.fprintf ppf "worst relative sigma difference = %.1f%%@\n"
    (100.0 *. worst_rel_diff t)
