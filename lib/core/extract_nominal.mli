(** Nominal VS parameter extraction: fit the VS model's I–V surface to the
    golden model's data (paper Fig. 1 — "VS model fitting for NMOS with data
    from a 40-nm BSIM4 industrial design kit").

    The fit runs Nelder–Mead on six free parameters (VT0, delta0, n0, vxo,
    mu, beta) against a mixed dataset: log-current transfer curves at low
    and high Vds (weights the subthreshold region) plus relative-error
    output curves at several gate voltages.  Cinv is taken directly from the
    golden card (the same "measured through oxide thickness" shortcut the
    paper uses for its statistics). *)

type dataset = {
  transfer : (float * float * float) array;
      (** (vgs, vds, id) points fitted in log space *)
  output : (float * float * float) array;
      (** (vgs, vds, id) points fitted in relative linear space *)
  cv : (float * float) array;
      (** (vgs, Cgg at Vds = 0) points — the C–V part of the fit; without
          it, vt0 can trade against vxo leaving the charge wrong *)
  gm : (float * float) array;
      (** (vgs, gm at Vds = Vdd) points: transconductance fidelity controls
          how the extracted statistics transfer to circuit timing *)
}

val golden_dataset :
  Vstat_device.Device_model.t -> vdd:float -> dataset
(** Sample the golden device: Id–Vg at Vds = 50 mV and Vdd (21 points each)
    and Id–Vd at four gate voltages (13 points each). *)

type result = {
  fitted : Vstat_device.Vs_model.params;     (** at the fit geometry *)
  params_of : w_nm:float -> l_nm:float -> Vstat_device.Vs_model.params;
      (** the same extracted card retargeted to any geometry *)
  rms_log_error : float;   (** RMS decades over the transfer set *)
  rms_rel_error : float;   (** RMS relative error over the output set *)
  iterations : int;
}

val fit :
  ?w_nm:float -> ?l_nm:float -> ?max_iter:int ->
  ?geometries:(float * float) list ->
  polarity:Vstat_device.Device_model.polarity ->
  unit ->
  result
(** Fit the VS model to the golden devices over [geometries] (default:
    [w_nm]/[l_nm], plus the paper's Fig. 1 device W/L = 300/40 nm when
    that differs); errors are reported at the primary geometry. *)

val objective :
  polarity:Vstat_device.Device_model.polarity ->
  dataset ->
  Vstat_device.Vs_model.params ->
  float
(** The scalar misfit minimized by {!fit} (exposed for tests/benches). *)
