module N = Vstat_circuit.Netlist

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

type 'd gate = {
  name : string;
  draw : Celltech.t -> wp_nm:float -> wn_nm:float -> 'd;
  add :
    N.t ->
    name:string ->
    devices:'d ->
    input:N.node ->
    output:N.node ->
    vdd_node:N.node ->
    gnd:N.node ->
    unit;
}

let sample_inverter (tech : Celltech.t) ~wp_nm ~wn_nm =
  { pmos = tech.pmos ~w_nm:wp_nm; nmos = tech.nmos ~w_nm:wn_nm }

let sample_two_input (tech : Celltech.t) ~wp_nm ~wn_nm =
  {
    pmos_a = tech.pmos ~w_nm:wp_nm;
    pmos_b = tech.pmos ~w_nm:wp_nm;
    nmos_a = tech.nmos ~w_nm:wn_nm;
    nmos_b = tech.nmos ~w_nm:wn_nm;
  }

let add_inverter net ~name ~devices ~input ~output ~vdd_node ~gnd =
  N.mosfet net (name ^ ".mp") ~d:output ~g:input ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos;
  N.mosfet net (name ^ ".mn") ~d:output ~g:input ~s:gnd ~b:gnd
    ~dev:devices.nmos

let add_nand2 net ~name ~devices ~input_a ~input_b ~output ~vdd_node ~gnd =
  let mid = N.node net (name ^ ".mid") in
  N.mosfet net (name ^ ".mpa") ~d:output ~g:input_a ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_a;
  N.mosfet net (name ^ ".mpb") ~d:output ~g:input_b ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_b;
  N.mosfet net (name ^ ".mna") ~d:output ~g:input_a ~s:mid ~b:gnd
    ~dev:devices.nmos_a;
  N.mosfet net (name ^ ".mnb") ~d:mid ~g:input_b ~s:gnd ~b:gnd
    ~dev:devices.nmos_b

let add_nor2 net ~name ~devices ~input_a ~input_b ~output ~vdd_node ~gnd =
  let mid = N.node net (name ^ ".mid") in
  (* Series PMOS stack: B at the supply side, A nearest the output. *)
  N.mosfet net (name ^ ".mpb") ~d:mid ~g:input_b ~s:vdd_node ~b:vdd_node
    ~dev:devices.pmos_b;
  N.mosfet net (name ^ ".mpa") ~d:output ~g:input_a ~s:mid ~b:vdd_node
    ~dev:devices.pmos_a;
  N.mosfet net (name ^ ".mna") ~d:output ~g:input_a ~s:gnd ~b:gnd
    ~dev:devices.nmos_a;
  N.mosfet net (name ^ ".mnb") ~d:output ~g:input_b ~s:gnd ~b:gnd
    ~dev:devices.nmos_b

let inverter = { name = "inverter"; draw = sample_inverter; add = add_inverter }

let nand2 =
  {
    name = "nand2";
    draw = sample_two_input;
    add =
      (fun net ~name ~devices ~input ~output ~vdd_node ~gnd ->
        add_nand2 net ~name ~devices ~input_a:input ~input_b:vdd_node ~output
          ~vdd_node ~gnd);
  }

let nor2 =
  {
    name = "nor2";
    draw = sample_two_input;
    add =
      (fun net ~name ~devices ~input ~output ~vdd_node ~gnd ->
        add_nor2 net ~name ~devices ~input_a:input ~input_b:gnd ~output
          ~vdd_node ~gnd);
  }

let add_nmos_pass net ~name ~dev ~a ~b ~gate ~gnd =
  N.mosfet net name ~d:a ~g:gate ~s:b ~b:gnd ~dev
