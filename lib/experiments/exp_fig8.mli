(** Fig. 8 — setup-time distribution of the master–slave NMOS-pass register
    (250 Monte Carlo runs in the paper). *)

type t = {
  n : int;
  setup : Mc_compare.pair;
}

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
