(** End-to-end construction of the statistical VS model:

    1. fit nominal VS cards to the golden model's I–V (NMOS and PMOS);
    2. "measure" metric sigmas on the golden statistical model by Monte
       Carlo at several geometries;
    3. run BPV to extract the alpha coefficients;
    4. package the result as {!Vs_statistical.t} handles ready for device-
       and circuit-level validation.

    Building the pipeline costs a few seconds; [default] memoizes one
    instance (seed 42, 2000 samples per geometry) shared by the CLI,
    examples and benches. *)

type t = {
  vdd : float;
  geometries : (float * float) list;  (** (W, L) in nm used for BPV *)
  golden_nmos : Bsim_statistical.t;
  golden_pmos : Bsim_statistical.t;
  fit_nmos : Extract_nominal.result;
  fit_pmos : Extract_nominal.result;
  observations_nmos : Bpv.observation list;
  observations_pmos : Bpv.observation list;
  bpv_nmos : Bpv.result;
  bpv_pmos : Bpv.result;
  vs_nmos : Vs_statistical.t;
  vs_pmos : Vs_statistical.t;
}

val build :
  ?seed:int ->
  ?jobs:int ->
  ?mc_per_geometry:int ->
  unit ->
  t
(** [jobs] is the {!Vstat_runtime.Runtime} worker count for the per-geometry
    sigma measurements (step 2); the built pipeline is bit-identical for any
    [jobs] value.  Each geometry's golden Monte Carlo
    ({!Bpv.observe_golden}) runs under the process-wide run controls
    ({!Vstat_runtime.Checkpoint.controls}) with its own snapshot label
    [bpv-<pol>-w<W>-l<L>], so an interrupted build resumes at the first
    incomplete geometry. *)
