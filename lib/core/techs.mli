(** Bridge between statistical device models and the benchmark cells:
    {!Vstat_cells.Celltech.t} handles whose every device request draws a
    fresh mismatch sample (or returns the nominal card). *)

val stochastic_vs :
  Pipeline.t -> rng:Vstat_util.Rng.t -> vdd:float -> Vstat_cells.Celltech.t
(** Statistical VS technology: each [nmos]/[pmos] call is an independent
    Monte Carlo draw from the extracted statistical VS model. *)

val stochastic_bsim :
  Pipeline.t -> rng:Vstat_util.Rng.t -> vdd:float -> Vstat_cells.Celltech.t
(** Statistical golden technology (the reference in every figure). *)

val nominal_vs : Pipeline.t -> vdd:float -> Vstat_cells.Celltech.t
