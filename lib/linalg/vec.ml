let max_rel_diff a b =
  if Array.length a <> Array.length b then
    invalid_arg "Vec.max_rel_diff: length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let denom = Float.max 1.0 (Float.max (Float.abs x) (Float.abs b.(i))) in
      acc := Float.max !acc (Float.abs (x -. b.(i)) /. denom))
    a;
  !acc
