type per_vdd = {
  vdd : float;
  pair : Mc_compare.pair;
  skew_golden : float;
  skew_vs : float;
  qq_r2_golden : float;
  qq_r2_vs : float;
  tail_dev_golden : float;
  tail_dev_vs : float;
  qq_vs : (float * float) array;
}

type t = { n : int; results : per_vdd list }

let run ?(vdds = [ 0.9; 0.7; 0.55; 0.45 ]) ?(n = 400) ?(seed = 31)
    (p : Vstat_core.Pipeline.t) =
  let results =
    List.map
      (fun vdd ->
        let measure tech =
          let nand2 = Vstat_cells.Gates.nand2 in
          let s =
            Vstat_cells.Fanout.sample nand2 tech ~wp_nm:300.0 ~wn_nm:300.0
              ~fanout:3
          in
          (Vstat_cells.Fanout.measure nand2 s).tpd
        in
        let pair =
          Mc_compare.run p
            ~label:(Printf.sprintf "NAND2 FO3 delay @ %.2fV" vdd)
            ~vdd ~n ~seed ~measure
        in
        {
          vdd;
          pair;
          skew_golden = Vstat_stats.Descriptive.skewness pair.golden;
          skew_vs = Vstat_stats.Descriptive.skewness pair.vs;
          qq_r2_golden = Vstat_stats.Qq.linearity_r2 pair.golden;
          qq_r2_vs = Vstat_stats.Qq.linearity_r2 pair.vs;
          tail_dev_golden = Vstat_stats.Qq.tail_deviation pair.golden;
          tail_dev_vs = Vstat_stats.Qq.tail_deviation pair.vs;
          qq_vs = Vstat_stats.Qq.against_normal pair.vs;
        })
      vdds
  in
  { n; results }

let pp ppf t =
  Format.fprintf ppf
    "Fig.7: NAND2 FO3 delay vs supply voltage, %d MC samples per model@\n" t.n;
  List.iter
    (fun r ->
      Mc_compare.pp_pair ppf r.pair;
      Format.fprintf ppf
        "  gaussianity: skew g=%+.2f vs=%+.2f | qq R2 g=%.4f vs=%.4f | tail dev g=%+.3f vs=%+.3f@\n"
        r.skew_golden r.skew_vs r.qq_r2_golden r.qq_r2_vs r.tail_dev_golden
        r.tail_dev_vs)
    t.results;
  (* The headline check: non-Gaussianity should grow as Vdd drops, in both
     models, and the VS model should track the golden skew. *)
  match (List.nth_opt t.results 0, List.nth_opt t.results (List.length t.results - 1)) with
  | Some hi, Some lo when hi.vdd > lo.vdd ->
    Format.fprintf ppf
      "non-Gaussian trend: skew(vs) %.2f -> %.2f as Vdd %.2f -> %.2f@\n"
      hi.skew_vs lo.skew_vs hi.vdd lo.vdd
  | _ -> ()
