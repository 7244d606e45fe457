module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure

type sample = {
  vdd : float;
  inverters : Gates.inverter_devices array;
  passes : Vstat_device.Device_model.t array;
}

let sample (tech : Celltech.t) =
  {
    vdd = tech.vdd;
    inverters =
      Array.init 4 (fun _ ->
          Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0);
    passes = Array.init 4 (fun _ -> tech.nmos ~w_nm:300.0);
  }

let edge = 10e-12

(* The falling clock edge, and the bisection window either side of it. *)
let t_clk = 200e-12
let search = 150e-12

(* Build the register with explicit CLK / CLKB / D waveforms and return the
   engine plus the Q node. *)
let build s ~clk ~clkb ~d_wave =
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nclk = N.node net "clk" in
  let nclkb = N.node net "clkb" in
  let nd = N.node net "d" in
  let m_in = N.node net "m_in" in
  let m_out = N.node net "m_out" in
  let m_fb = N.node net "m_fb" in
  let s_in = N.node net "s_in" in
  let s_out = N.node net "s_out" in
  let s_fb = N.node net "s_fb" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  N.vsource net "vclk" ~plus:nclk ~minus:gnd ~wave:clk;
  N.vsource net "vclkb" ~plus:nclkb ~minus:gnd ~wave:clkb;
  N.vsource net "vd" ~plus:nd ~minus:gnd ~wave:d_wave;
  Gates.add_nmos_pass net ~name:"m1" ~dev:s.passes.(0) ~a:nd ~b:m_in ~gate:nclk
    ~gnd;
  Gates.add_inverter net ~name:"i1" ~devices:s.inverters.(0) ~input:m_in
    ~output:m_out ~vdd_node:nvdd ~gnd;
  Gates.add_inverter net ~name:"i2" ~devices:s.inverters.(1) ~input:m_out
    ~output:m_fb ~vdd_node:nvdd ~gnd;
  Gates.add_nmos_pass net ~name:"m2" ~dev:s.passes.(1) ~a:m_fb ~b:m_in
    ~gate:nclkb ~gnd;
  Gates.add_nmos_pass net ~name:"m3" ~dev:s.passes.(2) ~a:m_out ~b:s_in
    ~gate:nclkb ~gnd;
  Gates.add_inverter net ~name:"i3" ~devices:s.inverters.(2) ~input:s_in
    ~output:s_out ~vdd_node:nvdd ~gnd;
  Gates.add_inverter net ~name:"i4" ~devices:s.inverters.(3) ~input:s_out
    ~output:s_fb ~vdd_node:nvdd ~gnd;
  Gates.add_nmos_pass net ~name:"m4" ~dev:s.passes.(3) ~a:s_fb ~b:s_in
    ~gate:nclk ~gnd;
  (net, s_out)

(* Simulate one capture attempt of a data edge rising at [t_d]: true when
   Q ends high. *)
let capture_ok s ~t_d =
  let vdd = s.vdd in
  let clk = W.pwl [| (t_clk, vdd); (t_clk +. edge, 0.0) |] in
  let clkb = W.pwl [| (t_clk, 0.0); (t_clk +. edge, vdd) |] in
  let d_wave = W.pwl [| (t_d, 0.0); (t_d +. edge, vdd) |] in
  let net, q_node = build s ~clk ~clkb ~d_wave in
  let eng = E.compile net in
  let tstop = t_clk +. 300e-12 in
  let trace = E.transient eng ~tstop ~dt:(tstop /. 500.0) in
  let q = E.node_wave eng trace q_node in
  let final = M.settled_value ~values:q ~tail_fraction:0.05 in
  (* Q follows D through two pass stages and two inversions each, so the
     captured Q equals the data value before the falling clock edge. *)
  final > 0.6 *. vdd

let setup_time s =
  (* Later data arrival -> capture fails; find the boundary. *)
  let fails t_d = not (capture_ok s ~t_d) in
  let lo = t_clk -. search in
  let hi = t_clk +. (0.3 *. search) in
  if fails lo then
    Vstat_circuit.Diag.fail ~analysis:"measure:dff.setup_time"
      Measure_no_crossing "capture fails even for very early data";
  if not (fails hi) then
    Vstat_circuit.Diag.fail ~analysis:"measure:dff.setup_time"
      Measure_no_crossing "capture succeeds even for very late data";
  let boundary =
    Vstat_opt.Scalar.bisect_predicate ~tol:1e-15 ~f:fails ~lo ~hi ()
  in
  t_clk -. boundary
