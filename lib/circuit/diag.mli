(** Typed solver diagnostics.

    Every failure the circuit layer can produce — solver non-convergence,
    numerical breakdown, measurement failures, watchdog trips, injected
    chaos faults — is carried by the single exception {!Solver_error}
    holding a structured {!t}: the failure {!kind} plus the context needed
    to debug it (analysis, simulated time, Newton iteration, continuation
    stage, last update norm, per-phase work-counter snapshot).

    At library initialization this module registers a
    {!Vstat_runtime.Runtime.register_classifier} mapping {!Solver_error}
    to its kind's name (["dc_no_convergence"], ...),
    {!Vstat_device.Fault_inject.Injected} to
    ["injected_fault"], and {!Vstat_linalg.Linalg_error.Numeric_error} to
    ["numeric_error"], so Monte Carlo failure budgets and censuses report
    {e why} samples die, by category, instead of a bag of exception
    strings.  A [Printexc] printer is registered too, so uncaught
    diagnostics render in full. *)

type kind =
  | Dc_no_convergence   (** every DC continuation strategy failed *)
  | Tran_step_floor     (** transient step rejected below [dt_min] *)
  | Singular_jacobian   (** LU pivot breakdown on every attempted solve *)
  | Nonfinite_update    (** NaN/Inf in the Newton update or residual *)
  | Measure_no_crossing (** waveform measurement found no threshold crossing *)
  | Work_cap_exceeded   (** deterministic per-solve work watchdog tripped *)
  | Injected_fault      (** chaos-harness fault ({!Vstat_device.Fault_inject}) *)

type t = {
  kind : kind;
  analysis : string;         (** e.g. ["dc"], ["transient"], ["measure:inv"] *)
  time : float option;       (** simulated time, when meaningful *)
  newton_iter : int option;  (** Newton iteration count at failure *)
  stage : string option;     (** continuation stage, e.g. ["gmin=1e-06"] *)
  dmax : float option;       (** last Newton update norm *)
  counters : (string * int) list;
      (** per-phase work-counter snapshot of the failing engine *)
  message : string;
}

exception Solver_error of t

val fail :
  ?time:float ->
  ?newton_iter:int ->
  ?stage:string ->
  ?dmax:float ->
  ?counters:(string * int) list ->
  analysis:string ->
  kind ->
  ('a, unit, string, 'b) format4 ->
  'a
(** Format-and-raise: [fail ~analysis kind fmt ...] raises {!Solver_error}. *)
