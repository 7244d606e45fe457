module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure

type sample = {
  vdd : float;
  stages : Gates.inverter_devices array;
  driver : Gates.inverter_devices;
}

let sample ?(stages = 8) (tech : Celltech.t) =
  if stages < 1 then
    invalid_arg "Chain.sample: stages >= 1" [@vstat.allow "exn-discipline"];
  let inverter () = Gates.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0 in
  {
    vdd = tech.vdd;
    stages = Array.init stages (fun _ -> inverter ());
    driver = inverter ();
  }

(* Build the chain netlist once for a given stage count and stimulus.
   [devices i] supplies the inverter pair for position [i] (0 = driver,
   then stages in order); returns the compiled engine and the probe
   nodes. *)
let build ?backend ~vdd ~stages ~window (devices : int -> Gates.inverter_devices)
    =
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd
    ~wave:(W.pwl [| (0.06 *. window, 0.0); (0.06 *. window *. 1.3, vdd) |]);
  let first = N.node net "s0" in
  Gates.add_inverter net ~name:"xdrv" ~devices:(devices 0) ~input:nin
    ~output:first ~vdd_node:nvdd ~gnd;
  let last = ref first in
  for i = 0 to stages - 1 do
    let out = N.node net (Printf.sprintf "s%d" (i + 1)) in
    Gates.add_inverter net
      ~name:(Printf.sprintf "x%d" i)
      ~devices:(devices (i + 1))
      ~input:!last ~output:out ~vdd_node:nvdd ~gnd;
    last := out
  done;
  (* A final gate load keeps the last stage realistic. *)
  N.capacitor net "cl" ~a:!last ~b:gnd ~farads:1e-15;
  (E.compile ?backend net, first, !last)

(* Extract the 50%-to-50% path delay from a finished transient. *)
let delay_of_trace ~vdd ~stages eng trace ~first ~last =
  let times = trace.E.times in
  let w_first = E.node_wave eng trace first in
  let w_last = E.node_wave eng trace last in
  let v50 = vdd /. 2.0 in
  (* Driver inverts the input rise, so the first stage's input falls; the
     final output polarity depends on chain parity. *)
  let output_rising = stages mod 2 = 1 in
  match
    M.propagation_delay ~times ~input:w_first ~output:w_last ~v50
      ~input_rising:false ~output_rising
  with
  | Some d -> d
  | None ->
    Vstat_circuit.Diag.fail ~analysis:"measure:chain" Measure_no_crossing
      "edge did not propagate (window too short)"

let measure ?backend s =
  let n = Array.length s.stages in
  let window =
    Inverter.default_window ~vdd:s.vdd *. Float.of_int (Int.max 1 (n / 3))
  in
  let devices i = if i = 0 then s.driver else s.stages.(i - 1) in
  let eng, first, last = build ?backend ~vdd:s.vdd ~stages:n ~window devices in
  let trace = E.transient eng ~tstop:window ~dt:(window /. 600.0) in
  delay_of_trace ~vdd:s.vdd ~stages:n eng trace ~first ~last
