type t = { dim : int; means : float array array; scale : float }

let check_dim dim =
  if dim < 1 then
    invalid_arg (Printf.sprintf "Proposal: dimension %d must be >= 1" dim)

let check_scale scale =
  if (not (Float.is_finite scale)) || scale <= 0.0 then
    invalid_arg
      (Printf.sprintf "Proposal: scale %g must be finite and positive" scale)

let check_mean ~what mean =
  Array.iter
    (fun m ->
      if not (Float.is_finite m) then
        invalid_arg
          (Printf.sprintf "Proposal.%s: non-finite mean entry %g" what m))
    mean

let standard ~dim =
  check_dim dim;
  { dim; means = [| Array.make dim 0.0 |]; scale = 1.0 }

let mixture ?(scale = 1.0) ~means () =
  let k = Array.length means in
  if k = 0 then invalid_arg "Proposal.mixture: no components";
  let dim = Array.length means.(0) in
  check_dim dim;
  check_scale scale;
  Array.iter
    (fun m ->
      if Array.length m <> dim then
        invalid_arg "Proposal.mixture: ragged component means";
      check_mean ~what:"mixture" m)
    means;
  { dim; means = Array.map Array.copy means; scale }

let from_pilot ~zs ~metrics ~tail ~threshold ?(scale = 1.0) () =
  let n = Array.length zs in
  if n = 0 then invalid_arg "Proposal.from_pilot: empty pilot";
  if Array.length metrics <> n then
    invalid_arg
      (Printf.sprintf
         "Proposal.from_pilot: %d coordinate vectors but %d metrics" n
         (Array.length metrics));
  let dim = Array.length zs.(0) in
  check_dim dim;
  (* Rank pilot samples by how deep into the tail they sit; take everything
     beyond the threshold, padded to the worst 5 % so a pilot with
     no failures still yields a direction. *)
  let order = Array.init n (fun i -> i) in
  let deeper a b =
    match tail with
    | `Upper -> Float.compare metrics.(b) metrics.(a)
    | `Lower -> Float.compare metrics.(a) metrics.(b)
  in
  Array.sort deeper order;
  let crossed =
    let k = ref 0 in
    Array.iter
      (fun m ->
        match tail with
        | `Upper -> if m > threshold then incr k
        | `Lower -> if m < threshold then incr k)
      metrics;
    !k
  in
  let floor_k = Int.max 1 (Float.to_int (Float.of_int n *. 0.05)) in
  let k = Int.min n (Int.max crossed floor_k) in
  let mean = Array.make dim 0.0 in
  for r = 0 to k - 1 do
    let z = zs.(order.(r)) in
    if Array.length z <> dim then
      invalid_arg "Proposal.from_pilot: ragged coordinate vectors";
    for j = 0 to dim - 1 do
      mean.(j) <- mean.(j) +. z.(j)
    done
  done;
  for j = 0 to dim - 1 do
    mean.(j) <- mean.(j) /. Float.of_int k
  done;
  check_scale scale;
  { dim; means = [| mean |]; scale }

let is_standard t =
  Array.length t.means = 1
  && Float.equal t.scale 1.0
  && Array.for_all (fun m -> Float.equal m 0.0) t.means.(0)

(* Determinism contract: a single-component proposal consumes exactly
   [dim] Gaussian variates; a K-component mixture consumes one bounded
   int (the component pick) plus [dim] Gaussians.  Per proposal the
   count is fixed, so a sample stays a pure function of its substream. *)
let draw t rng =
  let mean =
    if Array.length t.means = 1 then t.means.(0)
    else t.means.(Vstat_util.Rng.int rng ~bound:(Array.length t.means))
  in
  Array.init t.dim (fun i ->
      Vstat_util.Rng.gaussian_scaled rng ~mean:mean.(i) ~sigma:t.scale)

(* log f(z)/g(z) for f = N(0, I) against one component
   g = N(mean, scale^2 I):
     sum_i [ -z_i^2/2 + ((z_i - m_i)/s)^2/2 + log s ].
   The standard proposal must return exactly 0.0 (its estimators are
   documented to *be* plain MC bit for bit), so it short-circuits before
   any arithmetic can introduce roundoff. *)
let log_weight_single ~scale ~mean z =
  let dim = Array.length z in
  let log_s = log scale in
  let inv_s2 = 1.0 /. (scale *. scale) in
  let acc = ref 0.0 in
  for i = 0 to dim - 1 do
    let zi = z.(i) in
    let d = zi -. mean.(i) in
    acc := !acc +. (0.5 *. ((d *. d *. inv_s2) -. (zi *. zi))) +. log_s
  done;
  !acc

(* For a K-component equal-weight mixture, log f/g =
   log K - logsumexp_k [ -(log f/g_k) ]; computed through the per-component
   single ratios so the K = 1 case degenerates to the exact same
   arithmetic as [log_weight_single]. *)
let log_weight t z =
  if Array.length z <> t.dim then
    invalid_arg
      (Printf.sprintf "Proposal.log_weight: got %d coordinates, expected %d"
         (Array.length z) t.dim);
  if is_standard t then 0.0
  else if Array.length t.means = 1 then
    log_weight_single ~scale:t.scale ~mean:t.means.(0) z
  else begin
    let k = Array.length t.means in
    (* a_k = log g_k(z) - log f(z) = -(log f/g_k) *)
    let a =
      Array.map
        (fun mean -> -.log_weight_single ~scale:t.scale ~mean z)
        t.means
    in
    let hi = Array.fold_left Float.max neg_infinity a in
    let sum =
      Array.fold_left (fun acc ak -> acc +. exp (ak -. hi)) 0.0 a
    in
    log (Float.of_int k) -. (hi +. log sum)
  end

let to_string t =
  let shift2 =
    Array.fold_left
      (fun acc mean ->
        Float.max acc
          (Array.fold_left (fun s m -> s +. (m *. m)) 0.0 mean))
      0.0 t.means
  in
  let digest =
    let k = Array.length t.means in
    let b = Bytes.create (k * t.dim * 8) in
    Array.iteri
      (fun ki mean ->
        Array.iteri
          (fun i m ->
            Bytes.set_int64_le b (((ki * t.dim) + i) * 8)
              (Int64.bits_of_float m))
          mean)
      t.means;
    Vstat_util.Crc32.digest (Bytes.unsafe_to_string b)
  in
  Printf.sprintf "is(dim=%d,scale=%g,k=%d,shift=%g,means=%08x)" t.dim t.scale
    (Array.length t.means) (sqrt shift2) digest
