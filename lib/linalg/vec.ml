let check a b name =
  if Array.length a <> Array.length b then
    invalid_arg (Printf.sprintf "Vec.%s: length mismatch" name)

let dot a b =
  check a b "dot";
  let acc = ref 0.0 in
  Array.iteri (fun i x -> acc := !acc +. (x *. b.(i))) a;
  !acc

let norm_inf a =
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 a

let sub a b =
  check a b "sub";
  Array.mapi (fun i x -> x -. b.(i)) a

let axpy ~alpha ~x ~y =
  check x y "axpy";
  Array.iteri (fun i xi -> y.(i) <- y.(i) +. (alpha *. xi)) x

let max_rel_diff a b =
  check a b "max_rel_diff";
  let acc = ref 0.0 in
  Array.iteri
    (fun i x ->
      let denom = Float.max 1.0 (Float.max (Float.abs x) (Float.abs b.(i))) in
      acc := Float.max !acc (Float.abs (x -. b.(i)) /. denom))
    a;
  !acc
