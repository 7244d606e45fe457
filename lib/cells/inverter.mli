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
[@@vstat.allow "unused-optional"]
(** {!Fanout.measure} of {!Gates.inverter}.  [?window] is granted as a
    fault seam: test_experiments' failure-census case passes a 1 fs window
    so every sample fails typed with [Measure_no_crossing]. *)
