type row = {
  workload : string;
  samples : int;
  vs_runtime_s : float;
  bsim_runtime_s : float;
  vs_alloc_mb : float;
  bsim_alloc_mb : float;
}

type t = { rows : row list }

let speedup r = r.bsim_runtime_s /. r.vs_runtime_s
let alloc_ratio r = r.bsim_alloc_mb /. r.vs_alloc_mb

let timed f =
  let t0 = Vstat_runtime.Deadline.now_ns () in
  let a0 = Gc.allocated_bytes () in
  f ();
  let a1 = Gc.allocated_bytes () in
  (Vstat_runtime.Deadline.seconds_since t0, (a1 -. a0) /. 1048576.0)

let run_workload p ~workload ~samples ~seed ~measure =
  let run tech_of_rng =
    let rng = Vstat_util.Rng.create ~seed in
    timed (fun () ->
        for _ = 1 to samples do
          let tech = tech_of_rng (Vstat_util.Rng.split rng) in
          (try ignore (measure tech) with _ -> ())
        done)
  in
  let vs_runtime_s, vs_alloc_mb =
    run (fun rng -> Vstat_core.Techs.stochastic_vs p ~rng ~vdd:p.vdd)
  in
  let bsim_runtime_s, bsim_alloc_mb =
    run (fun rng -> Vstat_core.Techs.stochastic_bsim p ~rng ~vdd:p.vdd)
  in
  { workload; samples; vs_runtime_s; bsim_runtime_s; vs_alloc_mb; bsim_alloc_mb }

(* The paper's "SRAM AC" workload: small-signal sweep of a half-cell at the
   read operating point (10 frequency points per Monte Carlo sample). *)
let sram_ac_measure (tech : Vstat_cells.Celltech.t) =
  let cell = Vstat_cells.Sram6t.sample tech in
  let net = Vstat_circuit.Netlist.create () in
  let gnd = Vstat_circuit.Netlist.ground net in
  let nvdd = Vstat_circuit.Netlist.node net "vdd" in
  let nin = Vstat_circuit.Netlist.node net "in" in
  let nout = Vstat_circuit.Netlist.node net "out" in
  let nbl = Vstat_circuit.Netlist.node net "bl" in
  let nwl = Vstat_circuit.Netlist.node net "wl" in
  Vstat_circuit.Netlist.vsource net "vvdd" ~plus:nvdd ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc tech.vdd);
  Vstat_circuit.Netlist.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc (0.45 *. tech.vdd));
  Vstat_circuit.Netlist.vsource net "vbl" ~plus:nbl ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc tech.vdd);
  Vstat_circuit.Netlist.vsource net "vwl" ~plus:nwl ~minus:gnd
    ~wave:(Vstat_circuit.Waveform.Dc tech.vdd);
  Vstat_circuit.Netlist.mosfet net "mpu" ~d:nout ~g:nin ~s:nvdd ~b:nvdd
    ~dev:cell.left.pullup;
  Vstat_circuit.Netlist.mosfet net "mpd" ~d:nout ~g:nin ~s:gnd ~b:gnd
    ~dev:cell.left.pulldown;
  Vstat_circuit.Netlist.mosfet net "macc" ~d:nbl ~g:nwl ~s:nout ~b:gnd
    ~dev:cell.left.access;
  let eng = Vstat_circuit.Engine.compile net in
  let op = Vstat_circuit.Engine.dc eng in
  let ac =
    Vstat_circuit.Ac.sweep eng ~op ~source:"vin"
      ~freqs_hz:(Vstat_util.Floatx.logspace 6.0 11.0 10)
  in
  Vstat_circuit.Ac.node_transfer eng ac nout

let run ?(n_nand2 = 100) ?(n_dff = 20) ?(n_sram = 100) ?(seed = 43)
    (p : Vstat_core.Pipeline.t) =
  let nand2 =
    run_workload p ~workload:"NAND2 tran" ~samples:n_nand2 ~seed
      ~measure:(fun tech ->
        let nand2 = Vstat_cells.Gates.nand2 in
        Vstat_cells.Fanout.measure nand2
          (Vstat_cells.Fanout.sample nand2 tech ~wp_nm:300.0 ~wn_nm:300.0
             ~fanout:3))
  in
  let dff =
    run_workload p ~workload:"DFF setup" ~samples:n_dff ~seed:(seed + 1)
      ~measure:(fun tech ->
        Vstat_cells.Dff.setup_time (Vstat_cells.Dff.sample tech))
  in
  let sram =
    run_workload p ~workload:"SRAM SNM" ~samples:n_sram ~seed:(seed + 2)
      ~measure:(fun tech ->
        Vstat_cells.Sram6t.snm
          (Vstat_cells.Sram6t.sample tech)
          ~mode:Vstat_cells.Sram6t.Read)
  in
  let sram_ac =
    run_workload p ~workload:"SRAM AC" ~samples:n_sram ~seed:(seed + 3)
      ~measure:sram_ac_measure
  in
  { rows = [ nand2; dff; sram; sram_ac ] }

let model_eval_comparison (p : Vstat_core.Pipeline.t) =
  let evals = 200_000 in
  let vs_dev =
    Vstat_core.Vs_statistical.nominal_device p.vs_nmos ~w_nm:600.0 ~l_nm:40.0
  in
  let bsim_dev =
    Vstat_core.Bsim_statistical.nominal_device p.golden_nmos ~w_nm:600.0
      ~l_nm:40.0
  in
  let loop dev =
    let acc = ref 0.0 in
    let t0 = Vstat_runtime.Deadline.now_ns () in
    for i = 0 to evals - 1 do
      let vg = 0.9 *. Float.of_int (i mod 10) /. 9.0 in
      acc :=
        !acc
        +. Vstat_device.Device_model.ids dev ~vg ~vd:0.9 ~vs:0.0 ~vb:0.0
    done;
    ignore !acc;
    Vstat_runtime.Deadline.seconds_since t0
  in
  (* Warm up, then measure. *)
  ignore (loop vs_dev);
  ignore (loop bsim_dev);
  let t_vs = loop vs_dev in
  let t_bsim = loop bsim_dev in
  t_bsim /. t_vs

let pp ppf t =
  Format.fprintf ppf
    "Table IV: Monte Carlo runtime/allocation, VS vs golden (same engine)@\n";
  Vstat_util.Floatx.pp_table ppf
    ~header:
      [
        "workload"; "n"; "VS time (s)"; "BSIM time (s)"; "speedup";
        "VS alloc (MB)"; "BSIM alloc (MB)"; "alloc ratio";
      ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.workload;
             string_of_int r.samples;
             Printf.sprintf "%.2f" r.vs_runtime_s;
             Printf.sprintf "%.2f" r.bsim_runtime_s;
             Printf.sprintf "%.2fx" (speedup r);
             Printf.sprintf "%.0f" r.vs_alloc_mb;
             Printf.sprintf "%.0f" r.bsim_alloc_mb;
             Printf.sprintf "%.2fx" (alloc_ratio r);
           ])
         t.rows)
