type kind = Nan_current | Inf_current | Perturb_derivs | Raise

exception Injected of string

let kind_name = function
  | Nan_current -> "nan"
  | Inf_current -> "inf"
  | Perturb_derivs -> "perturb"
  | Raise -> "raise"

type config = { rate : float; kind : kind; seed : int }

type plan = { device_ordinal : int; at_eval : int; kind : kind }

(* Device ordinals are drawn modulo this span; wrap sites match creation
   ordinals the same way, so any circuit with at least [ordinal_span]
   transistors is guaranteed a hit when a plan fires. *)
let ordinal_span = 4

(* fmix64 finalizer (MurmurHash3): full-avalanche mixing so consecutive keys
   land on independent [0,1) draws. *)
let mix64 z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xff51afd7ed558ccdL
  in
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 33))
      0xc4ceb9fe1a85ec53L
  in
  Int64.logxor z (Int64.shift_right_logical z 33)

let golden = 0x9E3779B97F4A7C15L

(* Documented precondition (see mli): a config built by hand rather than
   through [parse_spec] must still carry a probability.  A NaN or
   out-of-range rate would silently bias every fault decision, so it is a
   programming error, reported as such. *)
let[@vstat.allow "exn-discipline"] validate cfg =
  if not (Float.is_finite cfg.rate && cfg.rate >= 0.0 && cfg.rate <= 1.0) then
    invalid_arg
      (Printf.sprintf "Fault_inject: rate %g is not a probability in [0,1]"
         cfg.rate)

let plan cfg ~key =
  validate cfg;
  if cfg.rate <= 0.0 then None
  else begin
    let h =
      mix64
        (Int64.add
           (Int64.mul (Int64.of_int cfg.seed) golden)
           (mix64 (Int64.of_int key)))
    in
    let u = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53 in
    if u >= cfg.rate then None
    else begin
      let h2 = mix64 (Int64.logxor h golden) in
      {
        device_ordinal =
          Int64.to_int (Int64.logand h2 (Int64.of_int (ordinal_span - 1)));
        at_eval =
          1 + Int64.to_int (Int64.logand (Int64.shift_right_logical h2 8) 255L);
        kind = cfg.kind;
      }
      |> Option.some
    end
  end

let wrap plan (dev : Device_model.t) =
  (* One counter shared by the value and derivative paths: the fault engages
     at the [at_eval]-th model evaluation of this device instance and stays
     engaged, mimicking a latched bad state rather than a one-shot glitch. *)
  let evals = ref 0 in
  let engaged () =
    incr evals;
    !evals >= plan.at_eval
  in
  let fault_msg () =
    Printf.sprintf "injected %s fault in %s at eval %d" (kind_name plan.kind)
      dev.Device_model.name !evals
  in
  let eval ~vg ~vd ~vs ~vb =
    let st = dev.Device_model.eval ~vg ~vd ~vs ~vb in
    if engaged () then
      match plan.kind with
      | Raise -> raise (Injected (fault_msg ()))
      | Nan_current -> { st with Device_model.id = Float.nan }
      | Inf_current -> { st with Device_model.id = Float.infinity }
      | Perturb_derivs -> st
    else st
  in
  let eval_derivs =
    Option.map
      (fun ed ~vg ~vd ~vs ~vb (buf : Device_model.derivs) ->
        ed ~vg ~vd ~vs ~vb buf;
        if engaged () then
          match plan.kind with
          | Raise -> raise (Injected (fault_msg ()))
          | Nan_current -> buf.Device_model.v_id <- Float.nan
          | Inf_current -> buf.Device_model.v_id <- Float.infinity
          | Perturb_derivs ->
            (* Corrupt the Jacobian only: the residual stays honest, so
               Newton either limps to the true solution or fails typed. *)
            for i = 0 to 3 do
              buf.Device_model.did.(i) <- buf.Device_model.did.(i) *. 3.0
            done)
      dev.Device_model.eval_derivs
  in
  { dev with Device_model.eval; eval_derivs }

let arm plan =
  (* Creation ordinal of the next device this mapper sees. *)
  let created = ref 0 in
  fun dev ->
    let ord = !created mod ordinal_span in
    incr created;
    if ord = plan.device_ordinal then wrap plan dev else dev

let kind_of_string = function
  | "nan" -> Some Nan_current
  | "inf" -> Some Inf_current
  | "perturb" -> Some Perturb_derivs
  | "raise" -> Some Raise
  | _ -> None

let parse_spec ?(seed = 0x1d0a) s =
  let rate_s, kind_s =
    match String.index_opt s ':' with
    | None -> (s, None)
    | Some i ->
      ( String.sub s 0 i,
        Some (String.sub s (i + 1) (String.length s - i - 1)) )
  in
  match float_of_string_opt (String.trim rate_s) with
  | None -> Error (Printf.sprintf "invalid fault rate %S" rate_s)
  | Some rate when not (rate >= 0.0 && rate <= 1.0) ->
    Error (Printf.sprintf "fault rate %g out of [0,1]" rate)
  | Some rate -> (
    match kind_s with
    | None -> Ok { rate; kind = Raise; seed }
    | Some k -> (
      match kind_of_string (String.lowercase_ascii (String.trim k)) with
      | Some kind -> Ok { rate; kind; seed }
      | None ->
        Error
          (Printf.sprintf "unknown fault kind %S (expected nan|inf|perturb|raise)"
             k)))

let spec_to_string cfg =
  Printf.sprintf "%g:%s" cfg.rate (kind_name cfg.kind)

(* --- service-layer faults ---------------------------------------------- *)

module Service = struct
  type action = Stall of float | Abort | Crash | Hang of float

  exception Crashed of string

  type config = {
    rate : float;
    abort_frac : float;
    crash_frac : float;
    hang_frac : float;
    stall_s : float;
    hang_s : float;
    seed : int;
  }

  let[@vstat.allow "exn-discipline"] validate cfg =
    let frac f = Float.is_finite f && f >= 0.0 && f <= 1.0 in
    if
      not
        (frac cfg.rate && frac cfg.abort_frac && frac cfg.crash_frac
        && frac cfg.hang_frac
        && cfg.abort_frac +. cfg.crash_frac +. cfg.hang_frac <= 1.0 +. 1e-12
        && Float.is_finite cfg.stall_s && cfg.stall_s >= 0.0
        && Float.is_finite cfg.hang_s && cfg.hang_s >= 0.0)
    then
      invalid_arg
        (Printf.sprintf
           "Fault_inject.Service: rate %g / abort_frac %g / crash_frac %g / \
            hang_frac %g / stall_s %g / hang_s %g out of range (fractions \
            must lie in [0,1] and sum to at most 1)"
           cfg.rate cfg.abort_frac cfg.crash_frac cfg.hang_frac cfg.stall_s
           cfg.hang_s)

  (* Same fmix64 key scheme as the device-level planner, with an extra
     golden offset so a shared seed never correlates the two fault
     streams.  Two independent draws: fire?, then which action — the
     second draw is split abort | crash | hang | stall by the configured
     fractions (stall takes the remainder). *)
  let plan cfg ~key =
    validate cfg;
    if cfg.rate <= 0.0 then None
    else begin
      let h =
        mix64
          (Int64.add
             (Int64.mul (Int64.of_int cfg.seed) golden)
             (mix64 (Int64.add (Int64.of_int key) golden)))
      in
      let u = Int64.to_float (Int64.shift_right_logical h 11) *. 0x1p-53 in
      if u >= cfg.rate then None
      else begin
        let h2 = mix64 (Int64.logxor h golden) in
        let v = Int64.to_float (Int64.shift_right_logical h2 11) *. 0x1p-53 in
        if v < cfg.abort_frac then Some Abort
        else if v < cfg.abort_frac +. cfg.crash_frac then Some Crash
        else if v < cfg.abort_frac +. cfg.crash_frac +. cfg.hang_frac then
          Some (Hang cfg.hang_s)
        else Some (Stall cfg.stall_s)
      end
    end

  let default_stall_s = 0.05
  let default_hang_s = 0.75

  let parse_spec ?(seed = 0x5e2c) s =
    let fields = String.split_on_char ':' s in
    match fields with
    | [] | [ "" ] -> Error "empty service fault spec"
    | rate_s :: rest -> (
      match float_of_string_opt (String.trim rate_s) with
      | None -> Error (Printf.sprintf "invalid fault rate %S" rate_s)
      | Some rate when not (rate >= 0.0 && rate <= 1.0) ->
        Error (Printf.sprintf "fault rate %g out of [0,1]" rate)
      | Some rate -> (
        (* [mk abort crash hang ~stall_s ~hang_s]: stall takes whatever
           fraction the named kinds leave. *)
        let mk abort_frac crash_frac hang_frac ~stall_s ~hang_s =
          if not (stall_s >= 0.0) then
            Error (Printf.sprintf "stall duration %g is negative" stall_s)
          else if not (hang_s >= 0.0) then
            Error (Printf.sprintf "hang duration %g is negative" hang_s)
          else
            Ok
              {
                rate;
                abort_frac;
                crash_frac;
                hang_frac;
                stall_s;
                hang_s;
                seed;
              }
        in
        let by_kind k ~sec =
          let stall_s = Option.value sec ~default:default_stall_s in
          let hang_s = Option.value sec ~default:default_hang_s in
          match k with
          | "abort" | "raise" ->
            mk 1.0 0.0 0.0 ~stall_s:default_stall_s ~hang_s:default_hang_s
          | "stall" -> mk 0.0 0.0 0.0 ~stall_s ~hang_s:default_hang_s
          | "mix" -> mk 0.5 0.0 0.0 ~stall_s ~hang_s:default_hang_s
          | "crash" ->
            mk 0.0 1.0 0.0 ~stall_s:default_stall_s ~hang_s:default_hang_s
          | "hang" -> mk 0.0 0.0 1.0 ~stall_s:default_stall_s ~hang_s
          | "chaos" ->
            (* Equal quarters of every service fault the supervisor must
               survive; SEC (when given) sets the stall length while hangs
               keep their default so a low watchdog floor still fires. *)
            mk 0.25 0.25 0.25 ~stall_s ~hang_s:default_hang_s
          | _ ->
            Error
              (Printf.sprintf
                 "unknown service fault kind %S (expected \
                  stall|abort|mix|crash|hang|chaos)"
                 k)
        in
        match rest with
        | [] -> mk 0.5 0.0 0.0 ~stall_s:default_stall_s ~hang_s:default_hang_s
        | [ kind ] | [ kind; "" ] -> (
          let k = String.lowercase_ascii (String.trim kind) in
          match float_of_string_opt k with
          | Some sec ->
            (* RATE:SECONDS shorthand for RATE:stall:SECONDS. *)
            mk 0.0 0.0 0.0 ~stall_s:sec ~hang_s:default_hang_s
          | None -> by_kind k ~sec:None)
        | [ kind; sec ] -> (
          match float_of_string_opt (String.trim sec) with
          | None -> Error (Printf.sprintf "invalid fault duration %S" sec)
          | Some s -> by_kind (String.lowercase_ascii (String.trim kind)) ~sec:(Some s))
        | _ -> Error (Printf.sprintf "malformed service fault spec %S" s)))

  let spec_to_string cfg =
    Printf.sprintf "%g:stall=%g,abort=%g,crash=%g,hang=%g(%gs)" cfg.rate
      (Float.max 0.0 (1.0 -. cfg.abort_frac -. cfg.crash_frac -. cfg.hang_frac))
      cfg.abort_frac cfg.crash_frac cfg.hang_frac cfg.hang_s
end
