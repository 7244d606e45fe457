(** Master–slave register built from NMOS-only pass transistors
    (paper Fig. 8(a)) with setup/hold characterization (Fig. 8(c)).

    The master is transparent while CLK is high and latches on the falling
    edge; the slave is transparent while CLK is low.  Setup/hold times are
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

val capture_ok : sample -> t_d:float -> data_rising:bool -> bool
(** Simulate one capture attempt: the data edge (rising for setup tests,
    falling for hold tests) happens at [t_d]; CLK falls at [t_clk] =
    200 ps.  True when Q ends at the post-edge data value. *)

val setup_time : sample -> float
(** Latest data-rise time that still captures, reported as the margin
    [t_clk - t_d] (s), bisected in a window from 150 ps before the clock
    edge. *)

val hold_time : sample -> float
(** Earliest data-fall time (after a captured 1) that keeps Q high,
    reported as [t_d - t_clk] (s); negative values mean data may change
    before the clock edge. *)
