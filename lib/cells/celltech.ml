type t = {
  label : string;
  vdd : float;
  l_nm : float;
  nmos : w_nm:float -> Vstat_device.Device_model.t;
  pmos : w_nm:float -> Vstat_device.Device_model.t;
}

let nominal_vs_seed ?(vdd = Vstat_device.Cards.vdd_nominal) () =
  let l_nm = Vstat_device.Cards.l_nominal_nm in
  {
    label = "vs-seed-nominal";
    vdd;
    l_nm;
    nmos =
      (fun ~w_nm ->
        Vstat_device.Cards.vs_seed_device
          ~polarity:Vstat_device.Device_model.Nmos ~w_nm ~l_nm);
    pmos =
      (fun ~w_nm ->
        Vstat_device.Cards.vs_seed_device
          ~polarity:Vstat_device.Device_model.Pmos ~w_nm ~l_nm);
  }

module FI = Vstat_device.Fault_inject

let with_fault_injection cfg ~key t =
  match FI.plan cfg ~key with
  | None -> t
  | Some plan ->
    (* One mapper for both polarities: the plan picks the transistor by
       draw order, deterministically. *)
    let arm = FI.arm plan in
    {
      t with
      nmos = (fun ~w_nm -> arm (t.nmos ~w_nm));
      pmos = (fun ~w_nm -> arm (t.pmos ~w_nm));
    }
