module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine
module W = Vstat_circuit.Waveform
module M = Vstat_circuit.Measure

type mode = Read | Hold

type half_devices = {
  pullup : Vstat_device.Device_model.t;
  pulldown : Vstat_device.Device_model.t;
  access : Vstat_device.Device_model.t;
}

type sample = { vdd : float; left : half_devices; right : half_devices }

let sample (tech : Celltech.t) =
  let half () =
    {
      pullup = tech.pmos ~w_nm:80.0;
      pulldown = tech.nmos ~w_nm:150.0;
      access = tech.nmos ~w_nm:105.0;
    }
  in
  { vdd = tech.vdd; left = half (); right = half () }

(* Half-cell VTC: the input source drives the gates of the inverter pair,
   the output node also sees the access transistor to a bitline at Vdd. *)
let vtc s ~side ~mode ~points =
  let devices = match side with `Left -> s.left | `Right -> s.right in
  let net = N.create () in
  let gnd = N.ground net in
  let nvdd = N.node net "vdd" in
  let nin = N.node net "in" in
  let nout = N.node net "out" in
  let nbl = N.node net "bl" in
  let nwl = N.node net "wl" in
  let vin_ref = ref 0.0 in
  N.vsource net "vvdd" ~plus:nvdd ~minus:gnd ~wave:(W.Dc s.vdd);
  N.vsource net "vin" ~plus:nin ~minus:gnd ~wave:(W.Var vin_ref);
  N.vsource net "vbl" ~plus:nbl ~minus:gnd ~wave:(W.Dc s.vdd);
  let wl = match mode with Read -> s.vdd | Hold -> 0.0 in
  N.vsource net "vwl" ~plus:nwl ~minus:gnd ~wave:(W.Dc wl);
  N.mosfet net "mpu" ~d:nout ~g:nin ~s:nvdd ~b:nvdd ~dev:devices.pullup;
  N.mosfet net "mpd" ~d:nout ~g:nin ~s:gnd ~b:gnd ~dev:devices.pulldown;
  N.mosfet net "macc" ~d:nbl ~g:nwl ~s:nout ~b:gnd ~dev:devices.access;
  let eng = E.compile net in
  let values = Vstat_util.Floatx.linspace 0.0 s.vdd points in
  let outs =
    M.dc_sweep eng
      ~set:(fun v -> vin_ref := v)
      ~values
      ~probe:(fun op -> E.voltage eng op nout)
  in
  Array.init points (fun i -> (values.(i), outs.(i)))

type butterfly = {
  curve1 : (float * float) array;
  curve2 : (float * float) array;
}

let butterfly ?(points = 81) s ~mode =
  (* curve1: left half-cell, input = q, output = qb -> points (q, qb).
     curve2: right half-cell, input = qb, output = q -> points (q, qb). *)
  let left = vtc s ~side:`Left ~mode ~points in
  let right = vtc s ~side:`Right ~mode ~points in
  {
    curve1 = left;
    curve2 = Array.map (fun (input, output) -> (output, input)) right;
  }

(* Largest axis-parallel square embedded in each butterfly lobe.  Both
   curves are strictly decreasing functions qb(q), so from a base point on
   the lower curve the 45-degree ray (q0 + t, qb0 + t) meets the upper curve
   at a unique t > 0; that t is the side of the square whose opposite
   corners touch the two curves.  The lobe SNM is the maximum such t; the
   cell SNM is the smaller lobe's value (Seevinck's method restated in the
   original coordinates, which stays single-valued). *)
let snm_lobes_of_butterfly { curve1; curve2 } =
  let as_function curve =
    let pairs = Array.copy curve in
    Array.sort (fun (a, _) (b, _) -> Float.compare a b) pairs;
    let xs = Array.map fst pairs and ys = Array.map snd pairs in
    fun q -> Vstat_util.Floatx.interp_linear ~xs ~ys q
  in
  let f1 = as_function curve1 in
  let f2 = as_function curve2 in
  let q_lo =
    Float.max
      (Array.fold_left (fun acc (q, _) -> Float.min acc q) infinity curve1)
      (Array.fold_left (fun acc (q, _) -> Float.min acc q) infinity curve2)
  in
  let q_hi =
    Float.min
      (Array.fold_left (fun acc (q, _) -> Float.max acc q) neg_infinity curve1)
      (Array.fold_left (fun acc (q, _) -> Float.max acc q) neg_infinity curve2)
  in
  let span = q_hi -. q_lo in
  if span <= 0.0 then (0.0, 0.0)
  else begin
    (* Maximum square from the lower curve [low] up-right to [high]. *)
    let lobe ~low ~high =
      let best = ref 0.0 in
      let samples = 201 in
      for i = 0 to samples - 1 do
        let q0 =
          q_lo +. (span *. Float.of_int i /. Float.of_int (samples - 1))
        in
        let y0 = low q0 in
        if high q0 > y0 then begin
          (* h(t) = high(q0+t) - (y0+t): positive at 0, decreasing. *)
          let t_max = q_hi -. q0 in
          if t_max > 0.0 then begin
            let h t = high (q0 +. t) -. (y0 +. t) in
            if h t_max <= 0.0 then begin
              let t =
                Vstat_opt.Scalar.bisect ~tol:1e-9 ~f:h ~lo:0.0 ~hi:t_max ()
              in
              best := Float.max !best t
            end
            else best := Float.max !best t_max
          end
        end
      done;
      !best
    in
    let lobe1 = lobe ~low:f2 ~high:f1 in
    let lobe2 = lobe ~low:f1 ~high:f2 in
    (lobe1, lobe2)
  end

let snm_of_butterfly b =
  let lobe1, lobe2 = snm_lobes_of_butterfly b in
  Float.min lobe1 lobe2

let snm_lobes ?(points = 81) s ~mode =
  snm_lobes_of_butterfly (butterfly ~points s ~mode)

let snm ?(points = 81) s ~mode = snm_of_butterfly (butterfly ~points s ~mode)
