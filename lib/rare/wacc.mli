(** Weighted streaming accumulator for importance-sampled estimators.

    The weighted analogue of {!Vstat_runtime.Accum}: a single pass over
    (value, weight) pairs maintains the weight sums S1 = sum(w) and
    S2 = sum(w^2), the self-normalized weighted mean (West's incremental
    update — the weighted Welford recurrence) and the largest weight.
    From one accumulator the importance-sampling layer reads the
    self-normalized estimate and the Kish effective sample size S1^2/S2.
    The estimators fold the index-stable per-sample arrays serially, so
    results stay bit-identical across [--jobs] counts. *)

type t

val create : unit -> t

val add : t -> w:float -> float -> unit
(** Fold one weighted sample; a zero-weight sample contributes nothing.
    [w] must be non-negative and finite (not checked here — the hot loop
    trusts the proposal layer, which validates its parameters). *)

val sum_weights : t -> float

val mean : t -> float
(** Self-normalized weighted mean sum(w x)/sum(w); [nan] when no weight
    has arrived. *)

val max_weight : t -> float

val ess : t -> float
(** Kish effective sample size S1^2/S2; 0 when empty or weightless. *)
