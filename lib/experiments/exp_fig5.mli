(** Fig. 5 — INV (fanout-3) delay probability densities for three cell
    sizes, statistical VS vs golden. *)

type size = { name : string; wp_nm : float; wn_nm : float }

type t = { n : int; vdd : float; results : (size * Mc_compare.pair) list }

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
