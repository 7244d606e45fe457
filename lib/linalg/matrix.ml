type t = { rows : int; cols : int; data : float array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Matrix.create: dimensions";
  { rows; cols; data = Array.make (rows * cols) 0.0 }

let init ~rows ~cols ~f =
  let m = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      m.data.((i * cols) + j) <- f i j
    done
  done;
  m

let identity n = init ~rows:n ~cols:n ~f:(fun i j -> if i = j then 1.0 else 0.0)

let of_rows arr =
  let rows = Array.length arr in
  if rows = 0 then invalid_arg "Matrix.of_rows: empty";
  let cols = Array.length arr.(0) in
  Array.iter
    (fun r ->
      if Array.length r <> cols then invalid_arg "Matrix.of_rows: ragged rows")
    arr;
  init ~rows ~cols ~f:(fun i j -> arr.(i).(j))

let rows m = m.rows
let cols m = m.cols
let buffer m = m.data

let check m i j =
  if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
    invalid_arg
      (Printf.sprintf "Matrix: index (%d, %d) out of %dx%d" i j m.rows m.cols)

let get m i j =
  check m i j;
  m.data.((i * m.cols) + j)

let set m i j v =
  check m i j;
  m.data.((i * m.cols) + j) <- v

let add_to m i j v =
  check m i j;
  let k = (i * m.cols) + j in
  m.data.(k) <- m.data.(k) +. v

let copy m = { m with data = Array.copy m.data }

let map ~f m = { m with data = Array.map f m.data }

let mul_vec a v =
  if a.cols <> Array.length v then invalid_arg "Matrix.mul_vec: dimension";
  Array.init a.rows (fun i ->
      let acc = ref 0.0 in
      for j = 0 to a.cols - 1 do
        acc := !acc +. (a.data.((i * a.cols) + j) *. v.(j))
      done;
      !acc)

let zip_with op a b =
  if a.rows <> b.rows || a.cols <> b.cols then
    invalid_arg "Matrix: dimension mismatch";
  { a with data = Array.init (Array.length a.data) (fun k -> op a.data.(k) b.data.(k)) }

let add a b = zip_with ( +. ) a b
let sub a b = zip_with ( -. ) a b
let scale s m = map ~f:(fun x -> s *. x) m

let max_abs m =
  Array.fold_left (fun acc x -> Float.max acc (Float.abs x)) 0.0 m.data
