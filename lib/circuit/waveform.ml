type pulse_shape = {
  low : float;
  high : float;
  delay : float;
  rise : float;
  fall : float;
  width : float;
  period : float;
}

type pwl_shape = {
  points : (float * float) array;
  xs : float array;
  ys : float array;
}

type t =
  | Dc of float
  | Var of float ref
  | Pulse of pulse_shape
  | Pwl of pwl_shape
  | Sine of sine_shape

and sine_shape = {
  offset : float;
  amplitude : float;
  freq_hz : float;
  phase : float;
}

let pwl points =
  if Array.length points = 0 then
    invalid_arg "Waveform.pwl: empty point list"
    [@vstat.allow "exn-discipline"];
  (* Split the (time, value) pairs once at construction: [pwl_value] runs
     inside every Newton iteration of every transient step, and mapping
     fst/snd there would allocate two arrays per evaluation. *)
  Pwl { points; xs = Array.map fst points; ys = Array.map snd points }

let pulse_value p time =
  let t = time -. p.delay in
  if t < 0.0 then p.low
  else begin
    let t = if p.period > 0.0 then Float.rem t p.period else t in
    if t < p.rise then p.low +. ((p.high -. p.low) *. t /. p.rise)
    else if t < p.rise +. p.width then p.high
    else if t < p.rise +. p.width +. p.fall then
      p.high -. ((p.high -. p.low) *. (t -. p.rise -. p.width) /. p.fall)
    else p.low
  end

let pwl_value { xs; ys; _ } time =
  let n = Array.length xs in
  if time <= xs.(0) then ys.(0)
  else if time >= xs.(n - 1) then ys.(n - 1)
  else Vstat_util.Floatx.interp_linear ~xs ~ys time

let value t time =
  match t with
  | Dc v -> v
  | Var r -> !r
  | Pulse p -> pulse_value p time
  | Pwl p -> pwl_value p time
  | Sine s ->
    s.offset +. (s.amplitude *. sin ((2.0 *. Float.pi *. s.freq_hz *. time) +. s.phase))

(* Cap on emitted pulse-train corners, so a degenerate tiny period cannot
   produce an unbounded breakpoint list. *)
let max_breakpoints = 4096

let breakpoints t ~tstop =
  match t with
  | Dc _ | Var _ | Sine _ -> []
  | Pwl { xs; _ } ->
    Array.fold_right
      (fun x acc -> if x > 0.0 && x < tstop then x :: acc else acc)
      xs []
  | Pulse p ->
    let corners =
      [ 0.0; p.rise; p.rise +. p.width; p.rise +. p.width +. p.fall ]
    in
    let rec periods acc count t0 =
      if p.delay +. t0 >= tstop || count >= max_breakpoints then acc
      else begin
        let acc =
          List.fold_left
            (fun acc c ->
              let x = p.delay +. t0 +. c in
              if x > 0.0 && x < tstop then x :: acc else acc)
            acc corners
        in
        if p.period > 0.0 then periods acc (count + 4) (t0 +. p.period)
        else acc
      end
    in
    List.rev (periods [] 0 0.0)
