(* Linear-solver cost estimates for the circuits the workloads simulate.

   The engine does not time its own factor and solve calls, so the
   benchmark rebuilds each workload's circuit on nominal devices, takes the
   Jacobian the transient Newton loop factors (G + C / h, from
   [Engine.linearize] at the DC operating point; G alone for DC-only
   circuits), and times that matrix through the public [Lu] / [Sparse]
   entry points on the backend the engine resolves for it.  The results
   are labelled estimates: the engine's own stamp pattern can hold a few
   more structural entries than the nonzeros seen here. *)

module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module G = Vstat_cells.Gates
module M = Vstat_linalg.Matrix

type circuit =
  | Fo3  (** Fig. 5 INV FO3 harness, P/N 600/300 nm *)
  | Chain of int  (** inverter chain of that many stages *)
  | Sram_half  (** 6T SRAM half-cell in READ, as swept for the VTC *)

type estimate = { factor_ns : float; solve_ns : float }

(* Netlist plus the transient step the workload takes (None: DC only).
   Topologies and step sizes mirror Inverter.measure, Chain.measure and
   Sram6t.vtc. *)
let build (p : Vstat_core.Pipeline.t) circuit =
  let tech = Vstat_core.Techs.nominal_vs p ~vdd:p.vdd in
  let vdd = p.vdd in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc vdd);
  let inv = G.sample_inverter tech ~wp_nm:600.0 ~wn_nm:300.0 in
  let add name a y =
    G.add_inverter net ~name ~devices:inv ~input:a ~output:y ~vdd_node:nvdd ~gnd
  in
  match circuit with
  | Fo3 ->
    let window = Vstat_cells.Inverter.default_window ~vdd in
    N.vsource net "vin" ~plus:nin ~minus:gnd
      ~wave:(W.pwl [| (0.08 *. window, 0.0); (0.1 *. window, vdd) |]);
    let na = N.node net "a" and ny = N.node net "y" in
    add "xdrv" nin na;
    add "xdut" na ny;
    for i = 0 to 2 do
      add (Printf.sprintf "xload%d" i) ny (N.node net (Printf.sprintf "l%d" i))
    done;
    (net, Some (window /. 400.0))
  | Chain stages ->
    let window =
      Vstat_cells.Inverter.default_window ~vdd
      *. Float.of_int (Int.max 1 (stages / 3))
    in
    N.vsource net "vin" ~plus:nin ~minus:gnd
      ~wave:(W.pwl [| (0.06 *. window, 0.0); (0.078 *. window, vdd) |]);
    let first = N.node net "s0" in
    add "xdrv" nin first;
    let last = ref first in
    for i = 1 to stages do
      let out = N.node net (Printf.sprintf "s%d" i) in
      add (Printf.sprintf "x%d" i) !last out;
      last := out
    done;
    N.capacitor net "cl" ~a:!last ~b:gnd ~farads:1e-15;
    (net, Some (window /. 600.0))
  | Sram_half ->
    let nout = N.node net "out" and nbl = N.node net "bl" in
    let nwl = N.node net "wl" in
    N.vsource net "vin" ~plus:nin ~minus:gnd ~wave:(W.Dc (0.5 *. vdd));
    N.vsource net "vbl" ~plus:nbl ~minus:gnd ~wave:(W.Dc vdd);
    N.vsource net "vwl" ~plus:nwl ~minus:gnd ~wave:(W.Dc vdd);
    N.mosfet net "mpu" ~d:nout ~g:nin ~s:nvdd ~b:nvdd
      ~dev:(tech.pmos ~w_nm:80.0);
    N.mosfet net "mpd" ~d:nout ~g:nin ~s:gnd ~b:gnd ~dev:(tech.nmos ~w_nm:150.0);
    N.mosfet net "macc" ~d:nbl ~g:nwl ~s:nout ~b:gnd
      ~dev:(tech.nmos ~w_nm:105.0);
    (net, None)

(* Median over 5 repeats of the per-call time of [body] minus that of
   [reset], each looped enough times to span a few milliseconds. *)
let time_per_call ~reset ~body =
  let iters =
    let t0 = Probe.now_ns () in
    for _ = 1 to 100 do
      reset ();
      body ()
    done;
    let per = Float.of_int (Probe.now_ns () - t0) /. 100.0 in
    Int.max 100 (int_of_float (5e6 /. Float.max per 1.0))
  in
  let loop f = Probe.per_call ~iters f in
  Stats.median
    (Array.init 5 (fun _ ->
         loop (fun () ->
             reset ();
             body ())
         -. loop reset))

let estimate p circuit =
  let net, step = build p circuit in
  let eng = E.compile net in
  let g, c = E.linearize eng (E.dc eng) in
  let n = M.rows g in
  let j =
    match step with
    | None -> g
    | Some h -> M.add g (M.scale (1.0 /. h) c)
  in
  let rhs = Array.init n (fun i -> 1.0 +. Float.of_int i) in
  let x = Array.copy rhs in
  let reset_rhs () = Array.blit rhs 0 x 0 n in
  let restamp, factor, solve =
    match E.resolved_backend eng with
    | E.Sparse ->
      let module S = Vstat_linalg.Sparse in
      let entries = ref [] in
      for r = n - 1 downto 0 do
        for col = n - 1 downto 0 do
          if not (Float.equal (M.get j r col) 0.0) then
            entries := (r, col) :: !entries
        done
      done;
      let sym = S.analyze ~n ~entries:(Array.of_list !entries) in
      let num = S.create_numeric sym in
      let vals = S.values num in
      List.iter
        (fun (r, col) -> vals.(S.slot sym ~row:r ~col) <- M.get j r col)
        !entries;
      let stamped = Array.copy vals in
      ( (fun () -> Array.blit stamped 0 vals 0 (Array.length vals)),
        (fun () -> S.factor num),
        fun () -> S.solve_in_place num x )
    | E.Dense | E.Auto ->
      let lu = M.copy j in
      let pivots = Array.make n 0 in
      let src = M.buffer j and dst = M.buffer lu in
      ( (fun () -> Array.blit src 0 dst 0 (Array.length src)),
        (fun () -> ignore (Vstat_linalg.Lu.factor_in_place lu ~pivots)),
        fun () -> Vstat_linalg.Lu.solve_in_place ~lu ~pivots x )
  in
  {
    factor_ns = time_per_call ~reset:restamp ~body:factor;
    solve_ns = time_per_call ~reset:reset_rhs ~body:solve;
  }
