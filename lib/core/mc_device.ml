type samples = {
  idsat : float array;
  log10_ioff : float array;
  cgg : float array;
}

let of_cells ~count cells =
  let idsat = Array.make count 0.0 in
  let log10_ioff = Array.make count 0.0 in
  let cgg = Array.make count 0.0 in
  let k = ref 0 in
  Array.iter
    (fun cell ->
      match cell with
      | Some (Ok (a, b, c)) ->
        idsat.(!k) <- a;
        log10_ioff.(!k) <- b;
        cgg.(!k) <- c;
        incr k
      | Some (Error _) -> assert false
      | None -> ())
    cells;
  assert (!k = count);
  { idsat; log10_ioff; cgg }

let run ?jobs ?checkpoint ?deadline ?signals ?(label = "mc_device")
    ?fingerprint ~sampler ~rng ~n ~vdd () =
  if n < 1 then invalid_arg "Mc_device.run: n >= 1";
  let module C = Vstat_runtime.Checkpoint in
  let o =
    C.run ?jobs ?settings:checkpoint ?deadline ?signals ?fingerprint
      ~codec:C.float_triple_codec ~label ~rng ~n
      ~f:(fun ~attempt:_ ~index:_ sample_rng ->
        let dev = sampler sample_rng in
        ( Vstat_device.Metrics.idsat dev ~vdd,
          Vstat_device.Metrics.log10_ioff dev ~vdd,
          Vstat_device.Metrics.cgg dev ~vdd ))
      ()
  in
  (* Device metrics are closed-form: any exception is a programming error,
     not statistical bad luck, so the budget is zero. *)
  Vstat_runtime.Runtime.reraise_first_failure (C.completed_run o);
  (* Under a deadline the arrays are compacted over the completed
     samples (index order) — a shorter but statistically valid draw. *)
  of_cells ~count:o.C.completed o.C.cells

let of_vs ?jobs ?checkpoint ?deadline ?signals ?label ?fingerprint t ~rng ~n
    ~w_nm ~l_nm ~vdd =
  run ?jobs ?checkpoint ?deadline ?signals ?label ?fingerprint
    ~sampler:(fun rng -> Vs_statistical.sample_device t rng ~w_nm ~l_nm)
    ~rng ~n ~vdd ()

let of_bsim ?jobs ?checkpoint ?deadline ?signals ?label ?fingerprint t ~rng ~n
    ~w_nm ~l_nm ~vdd =
  run ?jobs ?checkpoint ?deadline ?signals ?label ?fingerprint
    ~sampler:(fun rng -> Bsim_statistical.sample_device t rng ~w_nm ~l_nm)
    ~rng ~n ~vdd ()

let summary s =
  Vstat_runtime.Accum.
    ( of_array s.idsat,
      of_array s.log10_ioff,
      of_array s.cgg )
