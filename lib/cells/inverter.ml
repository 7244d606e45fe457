type result = Fanout.result = {
  tphl : float;
  tplh : float;
  tpd : float;
  leakage : float;
}

let sample = Fanout.sample Gates.inverter
let default_window = Fanout.default_window
let measure = Fanout.measure Gates.inverter
