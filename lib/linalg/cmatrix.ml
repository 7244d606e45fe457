type t = { rows : int; cols : int; data : Complex.t array }

let create ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Cmatrix.create: dimensions";
  { rows; cols; data = Array.make (rows * cols) Complex.zero }

let combine ~g ~c ~omega =
  let rows = Matrix.rows g and cols = Matrix.cols g in
  if Matrix.rows c <> rows || Matrix.cols c <> cols then
    invalid_arg "Cmatrix.combine: shape mismatch";
  let out = create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      out.data.((i * cols) + j) <-
        { Complex.re = Matrix.get g i j; im = omega *. Matrix.get c i j }
    done
  done;
  out

exception Singular of { column : int; scale : float }

let solve a0 b =
  let n = a0.rows in
  if a0.cols <> n then invalid_arg "Cmatrix.solve: square only";
  if Array.length b <> n then invalid_arg "Cmatrix.solve: rhs length";
  let a = { a0 with data = Array.copy a0.data } in
  let x = Array.copy b in
  let idx i j = (i * n) + j in
  for k = 0 to n - 1 do
    (* Partial pivoting by modulus. *)
    let pivot_row = ref k in
    let pivot_mag = ref (Complex.norm a.data.(idx k k)) in
    for i = k + 1 to n - 1 do
      let m = Complex.norm a.data.(idx i k) in
      if m > !pivot_mag then begin
        pivot_mag := m;
        pivot_row := i
      end
    done;
    (* Scale-relative singularity test, mirroring Lu.factor_in_place: the
       column scale includes the already-eliminated rows above k. *)
    let col_scale = ref !pivot_mag in
    for i = 0 to k - 1 do
      let m = Complex.norm a.data.(idx i k) in
      if m > !col_scale then col_scale := m
    done;
    if not (!pivot_mag > 1e-14 *. !col_scale) then
      raise (Singular { column = k; scale = !col_scale });
    if !pivot_row <> k then begin
      for j = 0 to n - 1 do
        let tmp = a.data.(idx k j) in
        a.data.(idx k j) <- a.data.(idx !pivot_row j);
        a.data.(idx !pivot_row j) <- tmp
      done;
      let tmp = x.(k) in
      x.(k) <- x.(!pivot_row);
      x.(!pivot_row) <- tmp
    end;
    let akk = a.data.(idx k k) in
    for i = k + 1 to n - 1 do
      let factor = Complex.div a.data.(idx i k) akk in
      if factor <> Complex.zero then begin
        for j = k to n - 1 do
          a.data.(idx i j) <-
            Complex.sub a.data.(idx i j) (Complex.mul factor a.data.(idx k j))
        done;
        x.(i) <- Complex.sub x.(i) (Complex.mul factor x.(k))
      end
    done
  done;
  (* Back substitution. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      x.(i) <- Complex.sub x.(i) (Complex.mul a.data.(idx i j) x.(j))
    done;
    x.(i) <- Complex.div x.(i) a.data.(idx i i)
  done;
  x
