type t = {
  mutable s0 : int64;
  mutable s1 : int64;
  mutable s2 : int64;
  mutable s3 : int64;
  mutable cached_gaussian : float option;
}

(* SplitMix64 step, used only to expand the seed into the xoshiro state. *)
let splitmix64 state =
  let open Int64 in
  let z = add !state 0x9E3779B97F4A7C15L in
  state := z;
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let create ~seed =
  let state = ref (Int64.of_int seed) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; cached_gaussian = None }

let rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let bits64 t =
  let open Int64 in
  let result = add (rotl (add t.s0 t.s3) 23) t.s0 in
  let tmp = shift_left t.s1 17 in
  t.s2 <- logxor t.s2 t.s0;
  t.s3 <- logxor t.s3 t.s1;
  t.s1 <- logxor t.s1 t.s2;
  t.s0 <- logxor t.s0 t.s3;
  t.s2 <- logxor t.s2 tmp;
  t.s3 <- rotl t.s3 45;
  result

let split t =
  let seed = Int64.to_int (bits64 t) in
  create ~seed

(* Golden-ratio increment, the SplitMix64 stream constant. *)
let gamma = 0x9E3779B97F4A7C15L

let substream ~seed ~index =
  if index < 0 then invalid_arg "Rng.substream: index must be >= 0";
  (* Counter-indexed stream derivation: expand the seed once, jump the
     SplitMix64 counter by [index] gammas, then expand into xoshiro state.
     A pure function of (seed, index) — no shared mutable state — so sample
     [index] sees the same stream under any scheduling of the others. *)
  let state = ref (Int64.of_int seed) in
  let key = splitmix64 state in
  (* The output mix is a bijection of the jumped counter, so distinct
     indices land on distinct, well-separated expansion counters (no
     overlapping windows between neighbouring indices). *)
  let counter = ref (Int64.add key (Int64.mul (Int64.of_int index) gamma)) in
  let state = ref (splitmix64 counter) in
  let s0 = splitmix64 state in
  let s1 = splitmix64 state in
  let s2 = splitmix64 state in
  let s3 = splitmix64 state in
  { s0; s1; s2; s3; cached_gaussian = None }

let float t =
  (* Use the top 53 bits for a uniform double on [0, 1). *)
  let bits = Int64.shift_right_logical (bits64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

let int t ~bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection sampling to avoid modulo bias. *)
  let rec loop () =
    let raw = Int64.to_int (Int64.shift_right_logical (bits64 t) 2) in
    let v = raw mod bound in
    if raw - v + (bound - 1) >= 0 then v else loop ()
  in
  loop ()

let gaussian t =
  match t.cached_gaussian with
  | Some g ->
    t.cached_gaussian <- None;
    g
  | None ->
    let rec polar () =
      let u = uniform t ~lo:(-1.0) ~hi:1.0 in
      let v = uniform t ~lo:(-1.0) ~hi:1.0 in
      let s = (u *. u) +. (v *. v) in
      if s >= 1.0 || Float.equal s 0.0 then polar ()
      else begin
        let scale = sqrt (-2.0 *. log s /. s) in
        t.cached_gaussian <- Some (v *. scale);
        u *. scale
      end
    in
    polar ()

let gaussian_scaled t ~mean ~sigma = mean +. (sigma *. gaussian t)

let lognormal t ~mu ~sigma = exp (gaussian_scaled t ~mean:mu ~sigma)
