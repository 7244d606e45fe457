let bisect ?(tol = 1e-12) ~f ~lo ~hi () =
  let flo = f lo and fhi = f hi in
  if Float.equal flo 0.0 then lo
  else if Float.equal fhi 0.0 then hi
  else if flo *. fhi > 0.0 then
    invalid_arg "Scalar.bisect: interval does not bracket a root"
  else begin
    let lo = ref lo and hi = ref hi and flo = ref flo in
    let i = ref 0 in
    while !hi -. !lo > tol *. Float.max 1.0 (Float.abs !hi) && !i < 200 do
      incr i;
      let mid = 0.5 *. (!lo +. !hi) in
      let fmid = f mid in
      if Float.equal fmid 0.0 then begin
        lo := mid;
        hi := mid
      end
      else if !flo *. fmid < 0.0 then hi := mid
      else begin
        lo := mid;
        flo := fmid
      end
    done;
    0.5 *. (!lo +. !hi)
  end

let bisect_predicate ?(tol = 1e-13) ~f ~lo ~hi () =
  if f lo then invalid_arg "Scalar.bisect_predicate: f lo must be false";
  if not (f hi) then invalid_arg "Scalar.bisect_predicate: f hi must be true";
  let lo = ref lo and hi = ref hi in
  let i = ref 0 in
  while !hi -. !lo > tol *. Float.max 1.0 (Float.abs !hi) && !i < 100 do
    incr i;
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid then hi := mid else lo := mid
  done;
  !hi

let golden_max ~f ~lo ~hi () =
  let phi = (sqrt 5.0 -. 1.0) /. 2.0 in
  let lo = ref lo and hi = ref hi in
  let x1 = ref (!hi -. (phi *. (!hi -. !lo))) in
  let x2 = ref (!lo +. (phi *. (!hi -. !lo))) in
  let f1 = ref (f !x1) and f2 = ref (f !x2) in
  let i = ref 0 in
  while !hi -. !lo > 1e-10 *. Float.max 1.0 (Float.abs !hi) && !i < 200 do
    incr i;
    if !f1 >= !f2 then begin
      hi := !x2;
      x2 := !x1;
      f2 := !f1;
      x1 := !hi -. (phi *. (!hi -. !lo));
      f1 := f !x1
    end
    else begin
      lo := !x1;
      x1 := !x2;
      f1 := !f2;
      x2 := !lo +. (phi *. (!hi -. !lo));
      f2 := f !x2
    end
  done;
  let x = 0.5 *. (!lo +. !hi) in
  (x, f x)
