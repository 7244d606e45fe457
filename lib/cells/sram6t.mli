(** 6T SRAM cell: butterfly curves and static noise margins (paper Fig. 9).

    The butterfly plot is built from the two half-cell voltage transfer
    curves obtained by breaking the cross-coupled loop; the SNM is the side
    of the largest square embedded in each butterfly lobe (computed with the
    classic 45-degree rotation method).  READ mode has the wordline high and
    both bitlines held at Vdd; HOLD mode has the wordline low. *)

type mode = Read | Hold

type half_devices = {
  pullup : Vstat_device.Device_model.t;    (** PMOS to Vdd *)
  pulldown : Vstat_device.Device_model.t;  (** NMOS to ground *)
  access : Vstat_device.Device_model.t;    (** NMOS pass to the bitline *)
}

type sample = {
  vdd : float;
  left : half_devices;
  right : half_devices;
}

val sample : Celltech.t -> sample
(** Draw one cell: pull-down 150 nm (the paper's "N 150 nm"), pull-up
    80 nm, access 105 nm. *)

type butterfly = {
  curve1 : (float * float) array;  (** (q, qb) from the left half-cell *)
  curve2 : (float * float) array;  (** (q, qb) from the mirrored right one *)
}

val butterfly : ?points:int -> sample -> mode:mode -> butterfly

val snm_of_butterfly : butterfly -> float
(** Static noise margin: min over the two lobes of the largest embedded
    square's side (V). *)

val snm : ?points:int -> sample -> mode:mode -> float

val snm_lobes : ?points:int -> sample -> mode:mode -> float * float
