(** Typed numerical-breakdown exception for the linear-algebra and
    optimization kernels.

    Precondition violations (wrong shapes, empty inputs) stay
    [Invalid_argument] — they are caller bugs.  {!Numeric_error} is
    reserved for data-dependent breakdown of an otherwise well-posed
    computation: Jacobi sweeps that do not converge, a rank-deficient
    triangular solve, an active-set loop that stalls.  Carrying the routine
    name and reason as structured fields lets the runtime failure
    classifier ({!Vstat_runtime.Runtime.register_classifier}, wired in
    [Vstat_circuit.Diag]) census these as ["numeric_error"] instead of an
    opaque [Failure] string. *)

exception Numeric_error of { routine : string; reason : string }

val fail : routine:string -> reason:string -> 'a
(** Raise {!Numeric_error}. *)
