(* @smoke: a tiny (n=50) device-level Monte Carlo pushed through the
   Vstat_runtime domain pool, and a tiny (50 samples per geometry)
   pipeline build, so every `dune runtest` (and `dune build @smoke`)
   exercises the OCaml 5 parallel paths and their determinism contract,
   not just the serial fallback. *)

let () =
  let vdd = Vstat_device.Cards.vdd_nominal in
  (* of_vs runs at the process-wide worker count. *)
  let run jobs =
    Vstat_runtime.Runtime.set_default_jobs jobs;
    Vstat_core.Mc_device.of_vs ~label:"smoke"
      Vstat_core.Vs_statistical.seed_nmos
      ~rng:(Vstat_util.Rng.create ~seed:2026)
      ~n:50 ~w_nm:600.0 ~l_nm:40.0 ~vdd
  in
  let bits = Array.map Int64.bits_of_float in
  let serial = run 1 in
  let parallel = run 4 in
  if
    not
      (bits serial.idsat = bits parallel.idsat
      && bits serial.log10_ioff = bits parallel.log10_ioff
      && bits serial.cgg = bits parallel.cgg)
  then begin
    prerr_endline "smoke: jobs:1 and jobs:4 Monte Carlo samples diverged";
    exit 1
  end;
  if Array.length parallel.idsat <> 50 then begin
    prerr_endline "smoke: the pool lost samples";
    exit 1
  end;
  print_endline
    "smoke: parallel device MC deterministic (n=50, jobs 1 == jobs 4)";
  (* The build fits NMOS on its own domain at jobs >= 2. *)
  let build jobs =
    let p = Vstat_core.Pipeline.build ~seed:42 ~jobs ~mc_per_geometry:50 () in
    let card (r : Vstat_core.Extract_nominal.result) =
      let f = r.fitted in
      [ f.vt0; f.dibl.delta0; f.n0; f.vxo; f.mu; f.beta; f.alpha_q ]
    in
    let obs (o : Vstat_core.Bpv.observation) =
      [ o.sigma_idsat; o.sigma_log10_ioff; o.sigma_cgg ]
    in
    let alphas (a : Vstat_core.Variation.alphas) =
      [ a.a_vt0; a.a_l; a.a_w; a.a_mu; a.a_cinv ]
    in
    List.map Int64.bits_of_float
      (card p.fit_nmos @ card p.fit_pmos
      @ List.concat_map obs (p.observations_nmos @ p.observations_pmos)
      @ alphas p.bpv_nmos.alphas @ alphas p.bpv_pmos.alphas)
  in
  if not (List.equal Int64.equal (build 1) (build 4)) then begin
    prerr_endline "smoke: jobs:1 and jobs:4 pipeline builds diverged";
    exit 1
  end;
  print_endline
    "smoke: pipeline build deterministic (50 per geometry, jobs 1 == jobs 4)"
