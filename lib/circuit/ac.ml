type point = { freq_hz : float; response : Complex.t array }
type t = { points : point list; source : string }

let sweep engine ~op ~source ~freqs_hz =
  let g, c = Engine.linearize engine op in
  let n = Vstat_linalg.Matrix.rows g in
  (* The AC excitation appears on the RHS of the excited source's branch
     row: the constraint row reads v+ - v- - V = 0, so a unit AC amplitude
     puts 1 in that row. *)
  let row = Engine.branch_row engine source in
  let b = Array.make n Complex.zero in
  b.(row) <- Complex.one;
  let points =
    Array.to_list
      (Array.map
         (fun freq_hz ->
           let omega = 2.0 *. Float.pi *. freq_hz in
           let a = Vstat_linalg.Cmatrix.combine ~g ~c ~omega in
           { freq_hz; response = Vstat_linalg.Cmatrix.solve a b })
         freqs_hz)
  in
  { points; source }

let node_transfer _engine t node =
  let i = Netlist.node_index node in
  Array.of_list
    (List.map
       (fun p ->
         let v = if i = 0 then Complex.zero else p.response.(i - 1) in
         (p.freq_hz, v))
       t.points)

let magnitude_db h = 20.0 *. log10 (Float.max (Complex.norm h) 1e-300)

let phase_deg h = Complex.arg h *. 180.0 /. Float.pi
