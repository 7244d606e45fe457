type result = Fanout.result = {
  tphl : float;
  tplh : float;
  tpd : float;
  leakage : float;
}

let sample = Fanout.sample Gates.inverter
let default_window = Fanout.default_window
let measure ?window s = Fanout.measure Gates.inverter ?window s
