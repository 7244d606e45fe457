type t = {
  n : int;
  setup : Mc_compare.pair;
}

let run ?(n = 120) ?(seed = 37) (p : Vstat_core.Pipeline.t) =
  let setup =
    Mc_compare.run p ~label:"DFF setup time" ~vdd:p.vdd ~n ~seed
      ~measure:(fun tech ->
        Vstat_cells.Dff.setup_time (Vstat_cells.Dff.sample tech))
  in
  { n; setup }

let pp ppf t =
  Format.fprintf ppf
    "Fig.8: DFF (master-slave, NMOS pass) setup time, %d MC samples per model@\n"
    t.n;
  Mc_compare.pp_pair ppf t.setup
