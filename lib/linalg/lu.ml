type t = {
  lu : Matrix.t;       (* combined L (unit diagonal) and U factors *)
  pivots : int array;  (* LAPACK-style swaps: row k exchanged pivots.(k) *)
}

exception Singular of { column : int; scale : float }

(* Singularity is judged *relative to the column's magnitude*: a pivot is
   acceptable when it is within [singular_rtol] of the largest entry seen in
   its column (both the already-eliminated U part and the pivot-search
   range).  An absolute threshold misclassifies well-conditioned but badly
   scaled systems — MNA matrices mix siemens-scale conductances with charge
   rows scaled by 1/h — while letting genuinely rank-deficient columns with
   not-tiny leftovers slip through. *)
let singular_rtol = 1e-14

(* Hot-path notes (enforced by the [@vstat.hot] lint rule and the
   zero-allocation gate in test/test_lint.ml):
   - the permutation parity is returned as an int (+1/-1), not a float — a
     boxed float return from a non-inlined function would allocate on every
     Newton iteration;
   - the inner loops index [Matrix.buffer] directly, because out-of-line
     [Matrix.get]/[set]/[add_to] calls box their float argument or result
     under classic (non-flambda) ocamlopt. *)
let[@vstat.hot] factor_in_place a ~pivots =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Lu.factor_in_place: square matrix";
  if Array.length pivots <> n then
    invalid_arg "Lu.factor_in_place: pivot array length";
  let d = Matrix.buffer a in
  let sign = ref 1 in
  for k = 0 to n - 1 do
    (* Partial pivoting: find the largest remaining entry in column k. *)
    let pivot_row = ref k in
    let pivot_val = ref (Float.abs d.((k * n) + k)) in
    for i = k + 1 to n - 1 do
      let v = Float.abs d.((i * n) + k) in
      if v > !pivot_val then begin
        pivot_val := v;
        pivot_row := i
      end
    done;
    (* Column scale = search max plus the U entries above the pivot row
       (rows already eliminated still witness the column's magnitude). *)
    let col_scale = ref !pivot_val in
    for i = 0 to k - 1 do
      let v = Float.abs d.((i * n) + k) in
      if v > !col_scale then col_scale := v
    done;
    (* scale >= pivot by construction, so the relative test also covers the
       all-zero column (0 > 0 is false) and NaN poisoning. *)
    if not (!pivot_val > singular_rtol *. !col_scale) then
      raise (Singular { column = k; scale = !col_scale });
    pivots.(k) <- !pivot_row;
    if !pivot_row <> k then begin
      let p = !pivot_row in
      for j = 0 to n - 1 do
        let tmp = d.((k * n) + j) in
        d.((k * n) + j) <- d.((p * n) + j);
        d.((p * n) + j) <- tmp
      done;
      sign := - !sign
    end;
    let ukk = d.((k * n) + k) in
    for i = k + 1 to n - 1 do
      let lik = d.((i * n) + k) /. ukk in
      d.((i * n) + k) <- lik;
      for j = k + 1 to n - 1 do
        d.((i * n) + j) <- d.((i * n) + j) -. (lik *. d.((k * n) + j))
      done
    done
  done;
  !sign

let[@vstat.hot] solve_in_place ~lu ~pivots b =
  let n = Matrix.rows lu in
  (* Shape guards (cold, once per solve): a non-square "factor" smuggled
     through the raw API would read out of bounds on the flat buffer. *)
  if Matrix.cols lu <> n then invalid_arg "Lu.solve_in_place: square factor";
  if Array.length pivots <> n then
    invalid_arg "Lu.solve_in_place: pivot array length";
  if Array.length b <> n then invalid_arg "Lu.solve_in_place: rhs length";
  let d = Matrix.buffer lu in
  (* Replay the row exchanges recorded during factorization. *)
  for k = 0 to n - 1 do
    let p = pivots.(k) in
    if p <> k then begin
      let tmp = b.(k) in
      b.(k) <- b.(p);
      b.(p) <- tmp
    end
  done;
  (* Forward substitution with unit-diagonal L. *)
  for i = 1 to n - 1 do
    for j = 0 to i - 1 do
      b.(i) <- b.(i) -. (d.((i * n) + j) *. b.(j))
    done
  done;
  (* Backward substitution with U. *)
  for i = n - 1 downto 0 do
    for j = i + 1 to n - 1 do
      b.(i) <- b.(i) -. (d.((i * n) + j) *. b.(j))
    done;
    b.(i) <- b.(i) /. d.((i * n) + i)
  done

let factor a =
  let n = Matrix.rows a in
  if Matrix.cols a <> n then invalid_arg "Lu.factor: matrix must be square";
  let lu = Matrix.copy a in
  let pivots = Array.make n 0 in
  ignore (factor_in_place lu ~pivots : int);
  { lu; pivots }

let solve_factored { lu; pivots } b =
  let n = Matrix.rows lu in
  if Matrix.cols lu <> n then invalid_arg "Lu.solve_factored: square factor";
  if Array.length b <> n then invalid_arg "Lu.solve_factored: rhs length";
  let x = Array.copy b in
  solve_in_place ~lu ~pivots x;
  x

let solve a b = solve_factored (factor a) b
