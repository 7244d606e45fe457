type t = {
  mutable s1 : float;       (* sum of weights *)
  mutable s2 : float;       (* sum of squared weights *)
  mutable wmean : float;    (* self-normalized weighted mean *)
  mutable wmax : float;     (* largest single weight seen *)
}

let create () = { s1 = 0.0; s2 = 0.0; wmean = 0.0; wmax = 0.0 }

(* West (1979) incremental weighted mean: the weighted Welford update.
   This is the importance-sampling inner loop — one call per Monte Carlo
   sample — so it must not allocate. *)
let[@vstat.hot] add t ~w x =
  if w > 0.0 then begin
    if w > t.wmax then t.wmax <- w;
    let s1' = t.s1 +. w in
    let delta = x -. t.wmean in
    let r = delta *. w /. s1' in
    t.wmean <- t.wmean +. r;
    t.s1 <- s1';
    t.s2 <- t.s2 +. (w *. w)
  end

let sum_weights t = t.s1
let mean t = if t.s1 > 0.0 then t.wmean else Float.nan

let ess t = if t.s2 > 0.0 then t.s1 *. t.s1 /. t.s2 else 0.0

let max_weight t = t.wmax
