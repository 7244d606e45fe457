(* Low-power / dynamic-voltage-scaling study: NAND2 delay distributions as
   the supply drops (the paper's Fig. 7 motivation).  One statistical VS
   extraction — done at the nominal 0.9 V — predicts timing distributions
   at every supply with no re-fitting.

   Run with:  dune exec examples/low_power_timing.exe *)

module D = Vstat_stats.Descriptive

let n = 120

let () =
  let p = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:1000 () in
  Printf.printf
    "NAND2 FO3 delay vs supply voltage (statistical VS model, %d samples)\n\n" n;
  Printf.printf "%6s %10s %10s %10s %8s %8s\n" "Vdd" "mean(ps)" "sigma(ps)"
    "sigma/mu" "skew" "qq R2";
  List.iter
    (fun vdd ->
      let rng = Vstat_util.Rng.create ~seed:11 in
      let delays = Array.make n 0.0 in
      for i = 0 to n - 1 do
        let tech =
          Vstat_core.Techs.stochastic_vs p ~rng:(Vstat_util.Rng.split rng) ~vdd
        in
        let nand2 = Vstat_cells.Gates.nand2 in
        let s =
          Vstat_cells.Fanout.sample nand2 tech ~wp_nm:300.0 ~wn_nm:300.0
            ~fanout:3
        in
        delays.(i) <- (Vstat_cells.Fanout.measure nand2 s).tpd
      done;
      Printf.printf "%6.2f %10.2f %10.2f %9.1f%% %8.2f %8.4f\n" vdd
        (1e12 *. D.mean delays)
        (1e12 *. D.std delays)
        (100.0 *. D.sigma_over_mu delays)
        (D.skewness delays)
        (Vstat_stats.Qq.linearity_r2 delays))
    [ 0.9; 0.8; 0.7; 0.6; 0.55; 0.5 ];
  Printf.printf
    "\nAs Vdd approaches VT the distribution widens and skews right — the\n\
     non-Gaussian regime that makes low-voltage SSTA hard (paper Sec. IV-B).\n"
