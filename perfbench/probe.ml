(* The benchmark's instrument: spans and counters recorded from outside
   the library, at the closures the layers hand each other.

   - A sample span is taken around each Monte Carlo measurement; it nests
     inside the round span the caller records.
   - Device-model evaluations ([Device_model.t.eval] / [eval_derivs]) and
     statistical draws ([Celltech.t.nmos] / [pmos]) are too many and too
     short for spans.  Wrapped closures accumulate them as count plus
     nanoseconds, and each sample span carries the deltas in its args.

   All state lives in per-domain buffers ([Domain.DLS]); each buffer
   registers itself once in an atomic list so the main domain can merge
   them after the worker domains have been joined.  Clock reads only ever
   flow into these buffers, never back into a sample's value. *)

[@@@vstat.allow "determinism-wallclock"]

module D = Vstat_device.Device_model

let now_ns () = Int64.to_int (Monotonic_clock.now ())

type span = {
  name : string;
  cat : string;
  tid : int;  (** domain id *)
  ts_ns : int;
  dur_ns : int;
  args : (string * float) list;
}

type buf = {
  tid : int;
  mutable evals : int;
  mutable eval_ns : int;
  mutable draws : int;
  mutable draw_ns : int;
  mutable spans : span list;
}

let registry : buf list Atomic.t = Atomic.make []

let rec register b =
  let l = Atomic.get registry in
  if not (Atomic.compare_and_set registry l (b :: l)) then register b

let key =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          tid = (Domain.self () :> int);
          evals = 0;
          eval_ns = 0;
          draws = 0;
          draw_ns = 0;
          spans = [];
        }
      in
      register b;
      b)

let record ~name ~cat ~t0 ~t1 args =
  let b = Domain.DLS.get key in
  b.spans <- { name; cat; tid = b.tid; ts_ns = t0; dur_ns = t1 - t0; args }
             :: b.spans

let span ~cat ?(args = []) name f =
  let t0 = now_ns () in
  let r = f () in
  record ~name ~cat ~t0 ~t1:(now_ns ()) args;
  r

let wrap_device (d : D.t) =
  let eval ~vg ~vd ~vs ~vb =
    let b = Domain.DLS.get key in
    let t0 = now_ns () in
    let r = d.eval ~vg ~vd ~vs ~vb in
    b.eval_ns <- b.eval_ns + (now_ns () - t0);
    b.evals <- b.evals + 1;
    r
  in
  let eval_derivs =
    Option.map
      (fun (f : D.eval_derivs) ~vg ~vd ~vs ~vb out ->
        let b = Domain.DLS.get key in
        let t0 = now_ns () in
        f ~vg ~vd ~vs ~vb out;
        b.eval_ns <- b.eval_ns + (now_ns () - t0);
        b.evals <- b.evals + 1)
      d.eval_derivs
  in
  { d with eval; eval_derivs }

let wrap_tech (t : Vstat_cells.Celltech.t) =
  let draw source ~w_nm =
    let b = Domain.DLS.get key in
    let t0 = now_ns () in
    let d = source ~w_nm in
    b.draw_ns <- b.draw_ns + (now_ns () - t0);
    b.draws <- b.draws + 1;
    wrap_device d
  in
  { t with nmos = draw t.nmos; pmos = draw t.pmos }

(* A sample span whose args carry the device and draw work done inside it.
   A sample that raises still gets its span (the runtime captures the
   exception as a failed cell). *)
let sample f =
  let b = Domain.DLS.get key in
  let e0 = b.evals and en0 = b.eval_ns and d0 = b.draws and dn0 = b.draw_ns in
  let t0 = now_ns () in
  let finish ok =
    let f = Float.of_int in
    record ~name:"sample" ~cat:"runtime" ~t0 ~t1:(now_ns ())
      [
        ("evals", f (b.evals - e0));
        ("eval_ns", f (b.eval_ns - en0));
        ("draws", f (b.draws - d0));
        ("draw_ns", f (b.draw_ns - dn0));
        ("ok", if ok then 1.0 else 0.0);
      ]
  in
  match f () with
  | v ->
    finish true;
    v
  | exception e ->
    finish false;
    raise e

(* Every span recorded so far, on every domain, oldest first.  Only call
   when no other domain is still recording. *)
let spans () =
  List.concat_map (fun b -> b.spans) (Atomic.get registry)
  |> List.sort (fun a b -> Int.compare a.ts_ns b.ts_ns)

(* Drop the recorded spans (the counters only matter as per-sample
   deltas).  Same condition as [spans]. *)
let clear () = List.iter (fun b -> b.spans <- []) (Atomic.get registry)

let arg span k = Option.value ~default:0.0 (List.assoc_opt k span.args)

(* --- calibration ---------------------------------------------------------- *)

type calibration = {
  clock_pair_ns : float;
      (** what a wrapped call that does nothing reads as its own duration:
          subtracted from every measured eval or draw *)
  wrap_ns : float;
      (** full added cost of one wrapped call (clock reads, DLS lookup,
          counter updates): subtracted from sample time *)
}

let per_call ~iters f =
  let t0 = now_ns () in
  for _ = 1 to iters do
    f ()
  done;
  Float.of_int (now_ns () - t0) /. Float.of_int iters

let calibrate () =
  let iters = 200_000 in
  let med f = Stats.median (Array.init 7 (fun _ -> f ())) in
  let clock_pair_ns =
    med (fun () ->
        let acc = ref 0 in
        for _ = 1 to iters do
          let t0 = now_ns () in
          acc := !acc + (now_ns () - t0)
        done;
        Float.of_int !acc /. Float.of_int iters)
  in
  let state = { D.id = 0.0; qg = 0.0; qd = 0.0; qs = 0.0; qb = 0.0 } in
  let bare =
    {
      D.name = "calibration";
      polarity = D.Nmos;
      width = 1e-6;
      length = 1e-7;
      eval = (fun ~vg:_ ~vd:_ ~vs:_ ~vb:_ -> state);
      eval_derivs = None;
    }
  in
  let wrapped = wrap_device bare in
  let call (d : D.t) () =
    ignore (Sys.opaque_identity (d.eval ~vg:0.1 ~vd:0.2 ~vs:0.0 ~vb:0.0))
  in
  let wrap_ns =
    med (fun () -> per_call ~iters (call wrapped) -. per_call ~iters (call bare))
  in
  { clock_pair_ns; wrap_ns = Float.max 0.0 wrap_ns }

(* --- Chrome trace-event output ------------------------------------------- *)

let write_chrome ~path ~origin_ns spans =
  let us ns = Float.of_int (ns - origin_ns) /. 1e3 in
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.cat);
        ("ph", Json.Str "X");
        ("pid", Json.Num 1.0);
        ("tid", Json.Num (Float.of_int s.tid));
        ("ts", Json.Num (us s.ts_ns));
        ("dur", Json.Num (Float.of_int s.dur_ns /. 1e3));
        ("args", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) s.args));
      ]
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
      List.iteri
        (fun i s ->
          if i > 0 then output_string oc ",\n";
          output_string oc (Json.to_string (event s)))
        spans;
      output_string oc "\n]}\n")
