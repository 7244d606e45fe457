type result = { x : float array; f : float; iterations : int; converged : bool }

(* One simplex run from [x0]: the starting simplex steps each coordinate by
   5 % of |x0_i|, or 0.01 where x0_i = 0. *)
let minimize ~max_iter ~f ~x0 =
  let f_tol = 1e-12 and x_tol = 1e-10 in
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Nelder_mead.minimize_restarts: empty x0";
  let step =
    Array.map
      (fun x -> if Float.equal x 0.0 then 0.01 else 0.05 *. Float.abs x)
      x0
  in
  (* Simplex of n+1 vertices with their objective values. *)
  let vertices =
    Array.init (n + 1) (fun i ->
        let v = Array.copy x0 in
        if i > 0 then v.(i - 1) <- v.(i - 1) +. step.(i - 1);
        v)
  in
  let values = Array.map f vertices in
  let order () =
    let idx = Array.init (n + 1) Fun.id in
    Array.sort (fun i j -> Float.compare values.(i) values.(j)) idx;
    idx
  in
  let centroid_excluding worst =
    let c = Array.make n 0.0 in
    Array.iteri
      (fun k v ->
        if k <> worst then
          Array.iteri (fun i x -> c.(i) <- c.(i) +. x) v)
      vertices;
    Array.map (fun x -> x /. Float.of_int n) c
  in
  let point_along c w t =
    (* c + t * (c - w) *)
    Array.init n (fun i -> c.(i) +. (t *. (c.(i) -. w.(i))))
  in
  let iterations = ref 0 in
  let converged = ref false in
  while (not !converged) && !iterations < max_iter do
    incr iterations;
    let idx = order () in
    let best = idx.(0) and worst = idx.(n) and second_worst = idx.(n - 1) in
    let f_best = values.(best) and f_worst = values.(worst) in
    (* Convergence tests. *)
    let f_spread =
      Float.abs (f_worst -. f_best)
      /. Float.max 1e-300 (Float.abs f_worst +. Float.abs f_best)
    in
    let x_spread =
      Vstat_linalg.Vec.max_rel_diff vertices.(best) vertices.(worst)
    in
    if f_spread < f_tol || x_spread < x_tol then converged := true
    else begin
      let c = centroid_excluding worst in
      let w = vertices.(worst) in
      let reflected = point_along c w 1.0 in
      let f_reflected = f reflected in
      if f_reflected < f_best then begin
        let expanded = point_along c w 2.0 in
        let f_expanded = f expanded in
        if f_expanded < f_reflected then begin
          vertices.(worst) <- expanded;
          values.(worst) <- f_expanded
        end
        else begin
          vertices.(worst) <- reflected;
          values.(worst) <- f_reflected
        end
      end
      else if f_reflected < values.(second_worst) then begin
        vertices.(worst) <- reflected;
        values.(worst) <- f_reflected
      end
      else begin
        let contracted =
          if f_reflected < f_worst then point_along c w 0.5
          else point_along c w (-0.5)
        in
        let f_contracted = f contracted in
        if f_contracted < Float.min f_reflected f_worst then begin
          vertices.(worst) <- contracted;
          values.(worst) <- f_contracted
        end
        else begin
          (* Shrink toward the best vertex. *)
          let b = vertices.(best) in
          Array.iteri
            (fun k v ->
              if k <> best then begin
                let shrunk =
                  Array.init n (fun i -> b.(i) +. (0.5 *. (v.(i) -. b.(i))))
                in
                vertices.(k) <- shrunk;
                values.(k) <- f shrunk
              end)
            vertices
        end
      end
    end
  done;
  let idx = order () in
  {
    x = Array.copy vertices.(idx.(0));
    f = values.(idx.(0));
    iterations = !iterations;
    converged = !converged;
  }

let minimize_restarts ?(restarts = 3) ?(max_iter = 2000) ~f ~x0 () =
  let rec go k best =
    if k >= restarts then best
    else begin
      let r = minimize ~max_iter ~f ~x0:best.x in
      let best = if r.f < best.f then r else best in
      (* Stop early when a restart makes no progress. *)
      if Float.abs (r.f -. best.f) <= 1e-15 *. Float.abs best.f && k > 0 then best
      else go (k + 1) best
    end
  in
  let first = minimize ~max_iter ~f ~x0 in
  go 1 first
