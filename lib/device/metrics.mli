(** Electrical performance metrics — the paper's BPV observables
    [e_i = {Idsat, log10 Ioff, Cgg@Vdd}] plus I–V curve sampling.

    All metrics are polarity-aware: a PMOS is measured with source and bulk
    at Vdd and the gate/drain pulled low, so [idsat] is always a positive
    on-current magnitude for both polarities. *)

val bias_current :
  Device_model.t -> vgs:float -> vds:float -> vdd:float -> float
(** |Id| at one bias point: NMOS source grounded, PMOS source and bulk at
    [vdd] (A). *)

val idsat : Device_model.t -> vdd:float -> float
(** On-current magnitude: |Id| at |Vgs| = |Vds| = Vdd (A). *)

val ioff : Device_model.t -> vdd:float -> float
(** Off-current magnitude: |Id| at Vgs = 0, |Vds| = Vdd (A). *)

val log10_ioff : Device_model.t -> vdd:float -> float
(** log10 of {!ioff}; the paper's preferred Gaussian-behaved leakage metric. *)

val cgg : Device_model.t -> vdd:float -> float
(** Total gate capacitance at |Vgs| = Vdd, Vds = 0 (F): the C–V measurement
    configuration used for the third BPV observable. *)

val id_vd_curve :
  Device_model.t -> vgs:float -> vds_points:float array -> (float * float) array
(** Output characteristic: (Vds, Id) pairs at fixed Vgs, NMOS sign
    convention (magnitudes for PMOS). *)

val id_vg_curve :
  Device_model.t -> vds:float -> vgs_points:float array -> (float * float) array
(** Transfer characteristic: (Vgs, Id) pairs at fixed Vds. *)
