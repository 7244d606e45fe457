module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure

type 'd sample = { vdd : float; driver : 'd; dut : 'd; loads : 'd array }
type result = { tphl : float; tplh : float; tpd : float; leakage : float }

let sample (gate : _ Gates.gate) (tech : Celltech.t) ~wp_nm ~wn_nm ~fanout =
  if fanout < 1 then
    invalid_arg "Fanout.sample: fanout >= 1" [@vstat.allow "exn-discipline"];
  {
    vdd = tech.vdd;
    driver = gate.draw tech ~wp_nm ~wn_nm;
    dut = gate.draw tech ~wp_nm ~wn_nm;
    loads = Array.init fanout (fun _ -> gate.draw tech ~wp_nm ~wn_nm);
  }

let default_window ~vdd =
  if vdd >= 0.8 then 400e-12 else if vdd >= 0.65 then 1200e-12 else 4000e-12

let build (gate : _ Gates.gate) s ~window =
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  let na = N.node net "a" in
  let ny = N.node net "y" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  let edge = 0.02 *. window in
  let t_rise = 0.08 *. window in
  let t_fall = 0.54 *. window in
  N.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:
      (W.pwl
         [|
           (t_rise, 0.0); (t_rise +. edge, s.vdd);
           (t_fall, s.vdd); (t_fall +. edge, 0.0);
         |]);
  gate.add net ~name:"xdrv" ~devices:s.driver ~input:nin ~output:na
    ~vdd_node:nvdd ~gnd;
  gate.add net ~name:"xdut" ~devices:s.dut ~input:na ~output:ny ~vdd_node:nvdd
    ~gnd;
  Array.iteri
    (fun i devices ->
      let out = N.node net (Printf.sprintf "l%d" i) in
      gate.add net ~name:(Printf.sprintf "xload%d" i) ~devices ~input:ny
        ~output:out ~vdd_node:nvdd ~gnd)
    s.loads;
  (net, na, ny)

let measure (gate : _ Gates.gate) ?window s =
  let window =
    match window with Some w -> w | None -> default_window ~vdd:s.vdd
  in
  let net, na, ny = build gate s ~window in
  let eng = E.compile net in
  let op = E.dc eng in
  let leakage = Float.abs (E.source_current eng op "vvdd") in
  let trace = E.transient eng ~tstop:window ~dt:(window /. 400.0) in
  let times = trace.E.times in
  let wa = E.node_wave eng trace na in
  let wy = E.node_wave eng trace ny in
  let v50 = s.vdd /. 2.0 in
  (* Input pulse rises then falls; node a falls then rises; y mirrors in. *)
  let tplh =
    M.propagation_delay ~times ~input:wa ~output:wy ~v50 ~input_rising:false
      ~output_rising:true
  in
  let tphl =
    M.propagation_delay ~times ~input:wa ~output:wy ~v50 ~input_rising:true
      ~output_rising:false
  in
  match (tplh, tphl) with
  | Some tplh, Some tphl ->
    { tphl; tplh; tpd = 0.5 *. (tphl +. tplh); leakage }
  | _ ->
    Vstat_circuit.Diag.fail ~analysis:("measure:" ^ gate.name)
      Measure_no_crossing "output never crossed 50%% (window %.3e s too short)"
      window
