(** Extension — why low-Vdd variation breaks Gaussian SSTA (the paper's
    Sec. IV-B remark, made quantitative).

    An 8-stage inverter-chain path is Monte-Carlo'd at transistor level
    with the statistical VS model.  A first-order Gaussian SSTA model of
    the same path (sum of independent per-stage Gaussian delays, moments
    taken from single-stage Monte Carlo) predicts the path distribution.
    At nominal Vdd the two agree; near threshold the per-stage
    distributions skew right and Gaussian SSTA underestimates the slow
    tail — the exact failure mode the paper warns about. *)

type per_vdd = {
  vdd : float;
  mc_delays : float array;        (** transistor-level path MC *)
  ssta_mean : float;              (** n * per-stage mean *)
  ssta_sigma : float;             (** sqrt(n) * per-stage sigma *)
  mc_q999 : float;                (** empirical 99.9th percentile *)
  ssta_q999 : float;              (** Gaussian prediction of the same *)
  tail_underestimate_pct : float; (** (mc - ssta)/mc * 100 at q99.9 *)
  stage_skew : float;             (** per-stage delay skewness *)
}

type t = { stages : int; n : int; results : per_vdd list }

val run :
  ?vdds:float list -> ?stages:int -> ?n:int -> ?seed:int ->
  Vstat_core.Pipeline.t -> t
[@@vstat.allow "unused-optional"]
(** Each Vdd runs two Monte Carlo passes, the path and the FO1 stage, as
    {!Mc_compare.collect_run}s labelled [ssta-path-<vdd>] and
    [ssta-stage-<vdd>] (Vdd to two decimals).  So the run controls
    ({!Vstat_runtime.Checkpoint.controls}) the CLI sets apply to both: a
    20 % failure budget, retries, checkpoint and resume per label, and the
    deadline.  Results are independent of the worker count.  [?vdds]
    (default 0.9 and 0.55 V) and [?stages] (default 8) are granted as a
    speed seam: test_experiments runs one supply and four stages, which
    takes its ssta case from about 1.3 s to 0.75 s. *)

val pp : Format.formatter -> t -> unit
