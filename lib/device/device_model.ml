type polarity = Nmos | Pmos

type terminal_state = {
  id : float;
  qg : float;
  qd : float;
  qs : float;
  qb : float;
}

type canonical_eval = vgs:float -> vds:float -> vbs:float -> terminal_state

type canonical_grad = {
  d_vgs : terminal_state;
  d_vds : terminal_state;
  d_vbs : terminal_state;
}

type canonical_eval_derivs =
  vgs:float -> vds:float -> vbs:float -> terminal_state * canonical_grad

type derivs = {
  mutable v_id : float;
  mutable v_qg : float;
  mutable v_qd : float;
  mutable v_qs : float;
  mutable v_qb : float;
  did : float array;
  dq : float array;
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

(* Shared quadrant bookkeeping for [make] and the derivative wrapper:
   mirror a PMOS into the NMOS quadrant, and swap source/drain so the
   canonical equations only ever see vds >= 0. *)
let eval_of_canonical sign (canonical : canonical_eval) ~vg ~vd ~vs ~vb =
  let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
  and vb = sign *. vb in
  let swapped = vd < vs in
  let d, s = if swapped then (vs, vd) else (vd, vs) in
  let state = canonical ~vgs:(vg -. s) ~vds:(d -. s) ~vbs:(vb -. s) in
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
let eval_derivs_of_canonical sign (cd : canonical_eval_derivs) ~vg ~vd ~vs ~vb
    (out : derivs) =
  let vg = sign *. vg and vd = sign *. vd and vs = sign *. vs
  and vb = sign *. vb in
  let swapped = vd < vs in
  let d, s = if swapped then (vs, vd) else (vd, vs) in
  let state, grad = cd ~vgs:(vg -. s) ~vds:(d -. s) ~vbs:(vb -. s) in
  let can_d = if swapped then 2 else 1 in
  let can_s = if swapped then 1 else 2 in
  let write4 arr off fgs fds fbs scale =
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
  write4 out.did 0 grad.d_vgs.id grad.d_vds.id grad.d_vbs.id swap_sign;
  (* dq rows in physical terminal order g, d, s, b; the physical drain's
     charge is the canonical source's when swapped. *)
  write4 out.dq 0 grad.d_vgs.qg grad.d_vds.qg grad.d_vbs.qg 1.0;
  if swapped then begin
    write4 out.dq 4 grad.d_vgs.qs grad.d_vds.qs grad.d_vbs.qs 1.0;
    write4 out.dq 8 grad.d_vgs.qd grad.d_vds.qd grad.d_vbs.qd 1.0
  end
  else begin
    write4 out.dq 4 grad.d_vgs.qd grad.d_vds.qd grad.d_vbs.qd 1.0;
    write4 out.dq 8 grad.d_vgs.qs grad.d_vds.qs grad.d_vbs.qs 1.0
  end;
  write4 out.dq 12 grad.d_vgs.qb grad.d_vds.qb grad.d_vbs.qb 1.0

let make ~name ~polarity ~width ~length ?canonical_derivs ~canonical () =
  let sign = match polarity with Nmos -> 1.0 | Pmos -> -1.0 in
  {
    name;
    polarity;
    width;
    length;
    eval = eval_of_canonical sign canonical;
    eval_derivs =
      Option.map (fun cd -> eval_derivs_of_canonical sign cd) canonical_derivs;
  }

let without_derivs t = { t with eval_derivs = None }

let ids t ~vg ~vd ~vs ~vb = (t.eval ~vg ~vd ~vs ~vb).id

let central f x dv = (f (x +. dv) -. f (x -. dv)) /. (2.0 *. dv)

let gm ?(dv = 1e-5) t ~vg ~vd ~vs ~vb =
  central (fun vg -> ids t ~vg ~vd ~vs ~vb) vg dv

let gds ?(dv = 1e-5) t ~vg ~vd ~vs ~vb =
  central (fun vd -> ids t ~vg ~vd ~vs ~vb) vd dv

let cgg ?(dv = 1e-5) t ~vg ~vd ~vs ~vb =
  central (fun vg -> (t.eval ~vg ~vd ~vs ~vb).qg) vg dv
