(** Fanout-of-N inverter harness (paper Figs. 5 and 6): {!Fanout} with
    {!Gates.inverter}, under the names the benchmark and the service
    call. *)

type result = Fanout.result = {
  tphl : float;
  tplh : float;
  tpd : float;
  leakage : float;
}

val sample :
  Celltech.t ->
  wp_nm:float ->
  wn_nm:float ->
  fanout:int ->
  Gates.inverter_devices Fanout.sample

val default_window : vdd:float -> float

val measure : ?window:float -> Gates.inverter_devices Fanout.sample -> result
