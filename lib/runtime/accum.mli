(** Streaming accumulators: one Welford pass gives count, mean, variance
    and extrema without storing the samples. *)

type t
(** Running count, mean, M2 (sum of squared deviations) and extrema. *)

val create : unit -> t
(** Empty accumulator. *)

val add : t -> float -> unit
(** Fold one sample in (Welford update). *)

val of_array : float array -> t

val count : t -> int
val mean : t -> float
(** [nan] when empty. *)

val variance : t -> float
(** Unbiased (n-1) sample variance; [nan] when [count < 2]. *)

val std : t -> float
val min : t -> float
val max : t -> float
