(* @smoke: a tiny (n=50) device-level Monte Carlo pushed through the
   Vstat_runtime domain pool, so every `dune runtest` (and `dune build
   @smoke`) exercises the OCaml 5 parallel path and its determinism
   contract, not just the serial fallback. *)

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
    "smoke: parallel device MC deterministic (n=50, jobs 1 == jobs 4)"
