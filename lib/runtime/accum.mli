(** Streaming accumulators: one Welford pass gives count, mean and variance
    without storing the samples. *)

type t
(** Running count, mean and M2 (sum of squared deviations). *)

val of_array : float array -> t

val count : t -> int
val mean : t -> float
(** [nan] when empty. *)

val std : t -> float
