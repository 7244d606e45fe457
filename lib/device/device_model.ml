type polarity = Nmos | Pmos

type terminal_state = {
  id : float;
  qg : float;
  qd : float;
  qs : float;
  qb : float;
}

type canonical_eval =
  vgs:float -> vds:float -> vbs:float -> float array -> terminal_state

let grad_length = 15

type derivs = {
  mutable v_id : float;
  mutable v_qg : float;
  mutable v_qd : float;
  mutable v_qs : float;
  mutable v_qb : float;
  did : float array;
  dq : float array;
  grad : float array;
}

let make_derivs () =
  {
    v_id = 0.0;
    v_qg = 0.0;
    v_qd = 0.0;
    v_qs = 0.0;
    v_qb = 0.0;
    did = Array.make 4 0.0;
    dq = Array.make 16 0.0;
    grad = Array.make grad_length 0.0;
  }

type eval_derivs = vg:float -> vd:float -> vs:float -> vb:float -> derivs -> unit

type t = {
  name : string;
  polarity : polarity;
  width : float;
  length : float;
  eval : vg:float -> vd:float -> vs:float -> vb:float -> terminal_state;
  eval_derivs : eval_derivs option;
}

(* Passed as the gradient array, it asks a kernel for values only. *)
let no_grad = [||]

(* Shared quadrant bookkeeping for [make] and the derivative wrapper:
   mirror a PMOS into the NMOS quadrant, and swap source/drain so the
   canonical equations only ever see vds >= 0. *)
let eval_of_canonical sign (canonical : canonical_eval) ~vg ~vd ~vs ~vb =
  let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
  and vb = sign *. vb in
  let swapped = vd < vs in
  let d, s = if swapped then (vs, vd) else (vd, vs) in
  let state = canonical ~vgs:(vg -. s) ~vds:(d -. s) ~vbs:(vb -. s) no_grad in
  let id = if swapped then -.state.id else state.id in
  let qd, qs = if swapped then (state.qs, state.qd) else (state.qd, state.qs) in
  {
    id = sign *. id;
    qg = sign *. state.qg;
    qd = sign *. qd;
    qs = sign *. qs;
    qb = sign *. state.qb;
  }

(* Chain rule from canonical partials (d/dvgs, d/dvds, d/dvbs) to the four
   terminal voltages.  With terminal index order (g, d, s, b) and [can_d]/
   [can_s] the physical terminals playing canonical drain/source:
     df/dVg      = f_gs
     df/dV_can_d = f_ds
     df/dVb      = f_bs
     df/dV_can_s = -(f_gs + f_ds + f_bs)
   The polarity mirror drops out entirely: outputs carry one factor of
   [sign] and the input voltages another, and sign^2 = 1. *)
let eval_derivs_of_canonical sign (canonical : canonical_eval) ~vg ~vd ~vs ~vb
    (out : derivs) =
  let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
  and vb = sign *. vb in
  let swapped = vd < vs in
  let d, s = if swapped then (vs, vd) else (vd, vs) in
  let g = out.grad in
  let state = canonical ~vgs:(vg -. s) ~vds:(d -. s) ~vbs:(vb -. s) g in
  let can_d = if swapped then 2 else 1 in
  let can_s = if swapped then 1 else 2 in
  (* Output [k] of (id, qg, qd, qs, qb): its partials sit at g.(k),
     g.(5 + k) and g.(10 + k). *)
  let write4 arr off k scale =
    let fgs = g.(k) and fds = g.(5 + k) and fbs = g.(10 + k) in
    arr.(off) <- scale *. fgs;
    arr.(off + can_d) <- scale *. fds;
    arr.(off + 3) <- scale *. fbs;
    arr.(off + can_s) <- -.scale *. (fgs +. fds +. fbs)
  in
  let swap_sign = if swapped then -1.0 else 1.0 in
  out.v_id <- sign *. swap_sign *. state.id;
  out.v_qg <- sign *. state.qg;
  out.v_qb <- sign *. state.qb;
  let qd, qs = if swapped then (state.qs, state.qd) else (state.qd, state.qs) in
  out.v_qd <- sign *. qd;
  out.v_qs <- sign *. qs;
  write4 out.did 0 0 swap_sign;
  (* dq rows in physical terminal order g, d, s, b; the physical drain's
     charge is the canonical source's when swapped. *)
  write4 out.dq 0 1 1.0;
  if swapped then begin
    write4 out.dq 4 3 1.0;
    write4 out.dq 8 2 1.0
  end
  else begin
    write4 out.dq 4 2 1.0;
    write4 out.dq 8 3 1.0
  end;
  write4 out.dq 12 4 1.0

let make ~name ~polarity ~width ~length ~canonical () =
  let sign = match polarity with Nmos -> 1.0 | Pmos -> -1.0 in
  {
    name;
    polarity;
    width;
    length;
    eval = eval_of_canonical sign canonical;
    eval_derivs = Some (eval_derivs_of_canonical sign canonical);
  }

let ids t ~vg ~vd ~vs ~vb = (t.eval ~vg ~vd ~vs ~vb).id

let central f x dv = (f (x +. dv) -. f (x -. dv)) /. (2.0 *. dv)

let gm t ~vg ~vd ~vs ~vb = central (fun vg -> ids t ~vg ~vd ~vs ~vb) vg 1e-5

let cgg t ~vg ~vd ~vs ~vb =
  central (fun vg -> (t.eval ~vg ~vd ~vs ~vb).qg) vg 1e-5
