module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform

type sample = { vdd : float; stages : Gates.inverter_devices array }

type result = {
  frequency_hz : float;
  period_s : float;
  stage_delay_s : float;
  leakage : float;
}

let sample (tech : Celltech.t) =
  {
    vdd = tech.vdd;
    stages =
      Array.init 5 (fun _ ->
          Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0);
  }

(* The DC operating point of a free ring is its metastable midpoint, and a
   perfectly symmetric integrator can sit there forever.  A brief kick-start
   current pulse on stage 0 breaks the symmetry. *)
let build s =
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  let n = Array.length s.stages in
  let nodes = Array.init n (fun i -> N.node net (Printf.sprintf "s%d" i)) in
  Array.iteri
    (fun i devices ->
      Gates.add_inverter net
        ~name:(Printf.sprintf "x%d" i)
        ~devices ~input:nodes.(i)
        ~output:nodes.((i + 1) mod n)
        ~vdd_node:nvdd ~gnd)
    s.stages;
  N.isource net "ikick" ~from_:nodes.(0) ~to_:gnd
    ~wave:
      (W.pwl
         [| (0.0, 0.0); (1e-12, 50e-6); (15e-12, 50e-6); (16e-12, 0.0) |]);
  (net, nodes.(0))

let measure s =
  let net, probe = build s in
  let eng = E.compile net in
  (* Rough period estimate: 2 * stages * (a generous FO1 stage delay). *)
  let stage_guess = 12e-12 *. (0.9 /. s.vdd) ** 2.0 in
  let period_guess = 2.0 *. Float.of_int (Array.length s.stages) *. stage_guess in
  let tstop = 6.0 *. period_guess *. 2.0 in
  let trace = E.transient eng ~tstop ~dt:(period_guess /. 60.0) in
  let times = trace.E.times in
  let wave = E.node_wave eng trace probe in
  (* Collect rising v50 crossings after the startup transient. *)
  let v50 = s.vdd /. 2.0 in
  let crossings = ref [] in
  for i = 0 to Array.length times - 2 do
    if wave.(i) < v50 && wave.(i + 1) >= v50 then begin
      let frac = (v50 -. wave.(i)) /. (wave.(i + 1) -. wave.(i)) in
      crossings := (times.(i) +. (frac *. (times.(i + 1) -. times.(i)))) :: !crossings
    end
  done;
  let crossings = Array.of_list (List.rev !crossings) in
  let n = Array.length crossings in
  if n < 4 then
    Vstat_circuit.Diag.fail ~analysis:"measure:ring_oscillator"
      Measure_no_crossing "did not oscillate (%d crossings)" n;
  (* Average period over the post-startup crossings. *)
  let first = Int.min 2 (n - 2) in
  let period =
    (crossings.(n - 1) -. crossings.(first)) /. Float.of_int (n - 1 - first)
  in
  let stages = Float.of_int (Array.length s.stages) in
  (* Leakage: measure a broken-ring DC (all stages driven low via a copy)
     approximated by the running ring's average supply current being
     dominated by switching; instead report the DC op current of the ring
     before the kick (metastable) scaled is wrong — use a simple static
     estimate: sum of per-stage off currents at the rails. *)
  let leakage =
    Array.fold_left
      (fun acc (d : Gates.inverter_devices) ->
        let off_n =
          Float.abs
            (Vstat_device.Device_model.ids d.nmos ~vg:0.0 ~vd:s.vdd ~vs:0.0
               ~vb:0.0)
        in
        let off_p =
          Float.abs
            (Vstat_device.Device_model.ids d.pmos ~vg:s.vdd ~vd:0.0 ~vs:s.vdd
               ~vb:s.vdd)
        in
        acc +. (0.5 *. (off_n +. off_p)))
      0.0 s.stages
  in
  {
    frequency_hz = 1.0 /. period;
    period_s = period;
    stage_delay_s = period /. (2.0 *. stages);
    leakage;
  }
