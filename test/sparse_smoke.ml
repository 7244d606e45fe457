(* Dense-vs-sparse backend smoke on the chain path-delay Monte Carlo
   (Chain.sample + Chain.measure through Runtime.map_rng_samples):
   - jobs:1 vs jobs:4 bit-identity of the sparse Monte Carlo path;
   - sparse vs dense per-sample agreement within 1e-9 relative.
   Runs under @sparse (the CI sparse job) and the default @runtest. *)

module E = Vstat_circuit.Engine
module R = Vstat_runtime.Runtime
module Chain = Vstat_cells.Chain

let stages = 13
let n = 6
let seed = 77
let vdd = 0.9

let fail fmt = Printf.ksprintf (fun m -> prerr_endline m; exit 1) fmt

let run ~jobs backend p =
  let f rng =
    let tech = Vstat_core.Techs.stochastic_vs p ~rng ~vdd in
    Chain.measure ~backend (Chain.sample ~stages tech)
  in
  let r = R.map_rng_samples ~jobs ~rng:(Vstat_util.Rng.create ~seed) ~n ~f () in
  R.check_budget ~label:"sparse_smoke" ~max_failure_frac:0.2 r;
  Array.map (function Ok d -> Some d | Error _ -> None) r.R.cells

let check_close label a b =
  Array.iteri
    (fun i va ->
      match (va, b.(i)) with
      | Some x, Some y ->
        let rel = Float.abs (x -. y) /. Float.max (Float.abs y) 1e-300 in
        if rel > 1e-9 then
          fail "%s: sample %d disagrees: %.17e vs %.17e (rel %.3e)" label i x
            y rel
      | None, None -> ()
      | _ -> fail "%s: sample %d failed on one side only" label i)
    a

let () =
  let p = Vstat_core.Pipeline.build ~seed:42 ~mc_per_geometry:300 () in
  let s1 = run ~jobs:1 E.Sparse p in
  let s4 = run ~jobs:4 E.Sparse p in
  let bits = Array.map (Option.map Int64.bits_of_float) in
  if bits s1 <> bits s4 then fail "sparse MC not bit-identical across jobs:1 / jobs:4";
  check_close "sparse-vs-dense" s1 (run ~jobs:1 E.Dense p);
  let ok =
    Array.fold_left (fun k d -> if Option.is_some d then k + 1 else k) 0 s1
  in
  if ok = 0 then fail "no successful samples";
  Printf.printf
    "sparse smoke OK: %d/%d samples, jobs bit-identical, dense/sparse within \
     1e-9\n"
    ok n
