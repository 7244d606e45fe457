type metric = Idsat | Log10_ioff | Cgg

let all_metrics = [ Idsat; Log10_ioff; Cgg ]

let metric_value dev ~vdd = function
  | Idsat -> Vstat_device.Metrics.idsat dev ~vdd
  | Log10_ioff -> Vstat_device.Metrics.log10_ioff dev ~vdd
  | Cgg -> Vstat_device.Metrics.cgg dev ~vdd

type parameter = [ `Vt0 | `L | `W | `Mu | `Cinv ]

let all_parameters = ([ `Vt0; `L; `W; `Mu; `Cinv ] : parameter list)

(* Steps chosen to sit well inside the linear-response region while staying
   far above float noise: ~1 sigma of a mid-size device. *)
let step (t : Vs_statistical.t) ~w_nm ~l_nm = function
  | `Vt0 -> 2e-3
  | `L -> Float.max 0.2 (0.005 *. l_nm)
  | `W -> Float.max 0.5 (0.005 *. w_nm)
  | `Mu ->
    let p = t.Vs_statistical.nominal ~w_nm ~l_nm in
    0.01 *. p.Vstat_device.Vs_model.mu /. 1e-4
  | `Cinv ->
    let p = t.Vs_statistical.nominal ~w_nm ~l_nm in
    0.005 *. p.Vstat_device.Vs_model.cinv /. 1e-2

let shifts_of_parameter param h =
  let z = Vs_statistical.zero_shifts in
  match param with
  | `Vt0 -> { z with Vs_statistical.dvt0 = h }
  | `L -> { z with Vs_statistical.dl_nm = h }
  | `W -> { z with Vs_statistical.dw_nm = h }
  | `Mu -> { z with Vs_statistical.dmu = h }
  | `Cinv -> { z with Vs_statistical.dcinv = h }

let vs_derivative (t : Vs_statistical.t) ~w_nm ~l_nm ~vdd metric param =
  let nominal = t.nominal ~w_nm ~l_nm in
  let h = step t ~w_nm ~l_nm param in
  let eval h =
    let p = Vs_statistical.apply_shifts nominal (shifts_of_parameter param h) in
    let dev = Vstat_device.Vs_model.device ~polarity:t.polarity p in
    metric_value dev ~vdd metric
  in
  (eval h -. eval (-.h)) /. (2.0 *. h)

