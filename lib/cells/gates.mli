(** Netlist fragments for static CMOS gates, built from explicit device
    instances (so statistical samples can be threaded through). *)

type inverter_devices = {
  pmos : Vstat_device.Device_model.t;
  nmos : Vstat_device.Device_model.t;
}

type two_input_devices = {
  pmos_a : Vstat_device.Device_model.t;
  pmos_b : Vstat_device.Device_model.t;
  nmos_a : Vstat_device.Device_model.t;
  nmos_b : Vstat_device.Device_model.t;
}
(** A NAND2 or NOR2: input A drives the [_a] pair, input B the [_b]
    pair.  Field order fixes the draw order (records are built right to
    left), so it is part of the Monte Carlo sample stream. *)

type 'd gate = {
  name : string;  (** tags diagnostics, e.g. [measure:nand2] *)
  draw : Celltech.t -> wp_nm:float -> wn_nm:float -> 'd;
      (** fresh devices for one instance *)
  add :
    Vstat_circuit.Netlist.t ->
    name:string ->
    devices:'d ->
    input:Vstat_circuit.Netlist.node ->
    output:Vstat_circuit.Netlist.node ->
    vdd_node:Vstat_circuit.Netlist.node ->
    gnd:Vstat_circuit.Netlist.node ->
    unit;
      (** stamp one instance; any other input is tied non-controlling *)
}
(** A single-input view of a gate: what a fanout bench ({!Fanout}) needs
    to draw, wire and name it. *)

val inverter : inverter_devices gate

val nand2 : two_input_devices gate
(** Input A switches and drives the NMOS nearest the output (the
    worst-case input); B is tied to Vdd. *)

val nor2 : two_input_devices gate
(** Input A switches and drives the PMOS nearest the output; B is tied to
    ground.  NOR pull-ups stack in series, so [wp_nm] is typically ~2x an
    inverter's PMOS width. *)

val sample_inverter : Celltech.t -> wp_nm:float -> wn_nm:float -> inverter_devices
(** Draw a fresh inverter's device pair from the technology. *)

val add_inverter :
  Vstat_circuit.Netlist.t ->
  name:string ->
  devices:inverter_devices ->
  input:Vstat_circuit.Netlist.node ->
  output:Vstat_circuit.Netlist.node ->
  vdd_node:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit

val add_nmos_pass :
  Vstat_circuit.Netlist.t ->
  name:string ->
  dev:Vstat_device.Device_model.t ->
  a:Vstat_circuit.Netlist.node ->
  b:Vstat_circuit.Netlist.node ->
  gate:Vstat_circuit.Netlist.node ->
  gnd:Vstat_circuit.Netlist.node ->
  unit
(** NMOS pass transistor between [a] and [b] (bulk to ground). *)
