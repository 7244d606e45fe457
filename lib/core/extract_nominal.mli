(** Nominal VS parameter extraction: fit the VS model's I–V surface to the
    golden model's data (paper Fig. 1 — "VS model fitting for NMOS with data
    from a 40-nm BSIM4 industrial design kit").

    The fit runs Nelder–Mead on six free parameters (VT0, delta0, n0, vxo,
    mu, beta) against a mixed dataset: log-current transfer curves at low
    and high Vds (weights the subthreshold region) plus relative-error
    output curves at several gate voltages.  Cinv is taken directly from the
    golden card (the same "measured through oxide thickness" shortcut the
    paper uses for its statistics). *)

type result = {
  fitted : Vstat_device.Vs_model.params;     (** at the fit geometry *)
  params_of : w_nm:float -> l_nm:float -> Vstat_device.Vs_model.params;
      (** the same extracted card retargeted to any geometry *)
  rms_log_error : float;   (** RMS decades over the transfer set *)
  rms_rel_error : float;   (** RMS relative error over the output set *)
  iterations : int;
}

val fit : polarity:Vstat_device.Device_model.polarity -> unit -> result
(** Fit the VS model to the golden device of the paper's Fig. 1,
    W/L = 300/40 nm, and report the errors there. *)
