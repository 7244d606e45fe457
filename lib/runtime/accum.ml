type t = {
  mutable n : int;
  mutable mean : float;
  mutable m2 : float;
}

let create () =
  { n = 0; mean = 0.0; m2 = 0.0 }

let[@vstat.hot] add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mean in
  t.mean <- t.mean +. (delta /. Float.of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mean))

let of_array xs =
  let t = create () in
  Array.iter (add t) xs;
  t

let variance t = if t.n < 2 then Float.nan else t.m2 /. Float.of_int (t.n - 1)
let std t = sqrt (variance t)