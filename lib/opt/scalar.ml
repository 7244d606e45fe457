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
