(** Table III — Monte Carlo standard deviations of Idsat and log10(Ioff)
    for wide/medium/short devices, statistical VS vs golden model, both
    polarities. *)

type entry = {
  label : string;       (** Wide / Medium / Short *)
  w_nm : float;
  l_nm : float;
  polarity : [ `N | `P ];
  bsim_sigma_idsat : float;   (** A *)
  vs_sigma_idsat : float;
  bsim_sigma_logioff : float;
  vs_sigma_logioff : float;
}

type t = { n : int; entries : entry list }

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t
val pp : Format.formatter -> t -> unit
