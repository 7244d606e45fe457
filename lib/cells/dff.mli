(** Master–slave register built from NMOS-only pass transistors
    (paper Fig. 8(a)) with setup-time characterization (Fig. 8(c)).

    The master is transparent while CLK is high and latches on the falling
    edge; the slave is transparent while CLK is low.  The setup time is
    found by bisection on the data-edge arrival time — the indirect,
    simulation-hungry measurement the paper highlights as the use case where
    an ultra-compact model pays off most. *)

type sample = {
  vdd : float;
  inverters : Gates.inverter_devices array;  (** I1..I4 *)
  passes : Vstat_device.Device_model.t array;  (** M1..M4 (NMOS) *)
}

val sample : Celltech.t -> sample
(** Draw one register instance, sized as in the paper: inverters
    P/N = 600/300 nm, pass transistors 300 nm. *)

val setup_time : sample -> float
(** Latest data-rise time that still captures, reported as the margin
    [t_clk - t_d] (s), bisected in a window from 150 ps before the clock
    edge. *)
