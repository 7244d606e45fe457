(** Fig. 1 — VS model fitted to the golden model's I–V, NMOS W = 300 nm:
    output characteristics (Id–Vd family) and transfer characteristics
    (Id–Vg at low/high Vds, read on a log axis). *)

type curve = { label : string; points : (float * float) array }

type t = {
  id_vd : (curve * curve) list;
      (** per gate voltage: (golden, vs) output curves *)
  id_vg : (curve * curve) list;
      (** per drain voltage: (golden, vs) transfer curves *)
  rms_log_error : float;
  rms_rel_error : float;
}

val run : Vstat_core.Pipeline.t -> t

val pp : Format.formatter -> t -> unit
