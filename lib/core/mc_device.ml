type samples = {
  idsat : float array;
  log10_ioff : float array;
  cgg : float array;
}

let run ?jobs ?fingerprint ~label ~sampler ~rng ~n ~vdd () =
  if n < 2 then invalid_arg "Mc_device.run: n >= 2";
  let module C = Vstat_runtime.Checkpoint in
  (* Device metrics are closed-form: any exception is a programming error,
     not statistical bad luck, so the budget is zero.  Under a deadline
     the run is compacted over the completed samples (index order) — a
     shorter but statistically valid draw. *)
  let r =
    C.collect ?jobs ~max_failure_frac:0.0 ?fingerprint
      ~codec:C.float_triple_codec ~label ~rng ~n
      ~f:(fun ~attempt:_ ~index:_ sample_rng ->
        let dev = sampler sample_rng in
        ( Vstat_device.Metrics.idsat dev ~vdd,
          Vstat_device.Metrics.log10_ioff dev ~vdd,
          Vstat_device.Metrics.cgg dev ~vdd ))
      ()
  in
  let v = Vstat_runtime.Runtime.values r in
  {
    idsat = Array.map (fun (a, _, _) -> a) v;
    log10_ioff = Array.map (fun (_, b, _) -> b) v;
    cgg = Array.map (fun (_, _, c) -> c) v;
  }

let of_vs ~label t ~rng ~n ~w_nm ~l_nm ~vdd =
  run ~label
    ~sampler:(fun rng -> Vs_statistical.sample_device t rng ~w_nm ~l_nm)
    ~rng ~n ~vdd ()

let of_bsim ?jobs ?fingerprint ~label t ~rng ~n ~w_nm ~l_nm ~vdd =
  run ?jobs ?fingerprint ~label
    ~sampler:(fun rng -> Bsim_statistical.sample_device t rng ~w_nm ~l_nm)
    ~rng ~n ~vdd ()

let summary s =
  Vstat_runtime.Accum.
    ( of_array s.idsat,
      of_array s.log10_ioff,
      of_array s.cgg )
