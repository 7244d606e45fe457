(** Streaming accumulators: one Welford pass gives the standard deviation
    without storing the samples. *)

type t
(** Running count, mean and M2 (sum of squared deviations). *)

val of_array : float array -> t

val std : t -> float
