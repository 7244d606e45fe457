(** Fig. 3 — Idsat mismatch (sigma/mu) versus width at L = 40 nm, decomposed
    into the underlying process-parameter contributions. *)

type row = {
  w_nm : float;
  total_pct : float;          (** sigma(Idsat)/mean(Idsat), percent, from MC *)
  predicted_pct : float;      (** same via linear propagation (eq. 9) *)
  vt0_pct : float;
  geometry_pct : float;       (** combined Leff & Weff contribution *)
  mu_pct : float;
  cinv_pct : float;
}

type t = { l_nm : float; rows : row list }

val run : ?n:int -> ?seed:int -> Vstat_core.Pipeline.t -> t
(** One row per width: 120, 300, 600, 1000 and 1500 nm. *)

val pp : Format.formatter -> t -> unit
