(* vstat_sim — standalone SPICE-deck simulator on the vstat engine.

   Usage: dune exec bin/vstat_sim.exe -- deck.sp [--csv]

   Runs every analysis directive in the deck and prints results: operating
   point plus, per directive, a table (or CSV with --csv) of node voltages
   over time / sweep value / frequency. *)

module P = Vstat_circuit.Spice_parser
module N = Vstat_circuit.Netlist
module E = Vstat_circuit.Engine


let print_series ~csv ~x_label ~x ~columns =
  let header = x_label :: List.map fst columns in
  if csv then begin
    print_endline (String.concat "," header);
    Array.iteri
      (fun i xi ->
        let cells =
          Printf.sprintf "%.9g" xi
          :: List.map (fun (_, ys) -> Printf.sprintf "%.9g" ys.(i)) columns
        in
        print_endline (String.concat "," cells))
      x
  end
  else begin
    let rows =
      (* Sample up to ~24 evenly spaced rows for terminal output. *)
      let n = Array.length x in
      let step = Int.max 1 (n / 24) in
      List.filter_map
        (fun i ->
          if i mod step = 0 || i = n - 1 then
            Some
              (Printf.sprintf "%.4g" x.(i)
              :: List.map
                   (fun (_, ys) -> Printf.sprintf "%.5g" ys.(i))
                   columns)
          else None)
        (List.init n Fun.id)
    in
    Vstat_util.Floatx.pp_table Format.std_formatter ~header ~rows;
    Format.pp_print_flush Format.std_formatter ()
  end

(* Rebuild a netlist with every MOSFET's device instance mapped through
   [map_dev] (used to arm injected faults without touching the parse). *)
let map_devices netlist ~map_dev =
  let net2 = N.create () in
  List.iter
    (fun e ->
      let copy n = N.node net2 (N.node_name netlist n) in
      match e with
      | N.Vsource { name; plus; minus; wave } ->
        N.vsource net2 name ~plus:(copy plus) ~minus:(copy minus) ~wave
      | N.Resistor { name; a; b; ohms } ->
        N.resistor net2 name ~a:(copy a) ~b:(copy b) ~ohms
      | N.Capacitor { name; a; b; farads } ->
        N.capacitor net2 name ~a:(copy a) ~b:(copy b) ~farads
      | N.Isource { name; from_; to_; wave } ->
        N.isource net2 name ~from_:(copy from_) ~to_:(copy to_) ~wave
      | N.Mosfet { name; d; g; s; b; dev } ->
        N.mosfet net2 name ~d:(copy d) ~g:(copy g) ~s:(copy s) ~b:(copy b)
          ~dev:(map_dev dev))
    (N.elements netlist);
  net2

module FI = Vstat_device.Fault_inject

let inject_netlist cfg ~attempt netlist =
  match FI.plan cfg ~key:attempt with
  | None -> netlist
  | Some plan -> map_devices netlist ~map_dev:(FI.arm plan)

let run_netlist ~csv ~deadline (deck : P.deck) netlist =
  let eng = E.compile netlist in
  let nodes = N.all_nodes netlist in
  let names = List.map fst nodes in
  (* Operating point. *)
  let op = E.dc eng in
  Printf.printf "\noperating point:\n";
  List.iter
    (fun (name, n) -> Printf.printf "  v(%s) = %.6g V\n" name (E.voltage eng op n))
    nodes;
  List.iter
    (fun src ->
      Printf.printf "  i(%s) = %.6g A\n" src (E.source_current eng op src))
    (N.vsource_names netlist);
  (* Analyses.  The wall-clock budget is checked between directives: an
     expired deadline skips the remaining analyses (each completed one has
     already been printed) instead of tearing the run mid-solve. *)
  let expired = ref false in
  List.iter
    (fun analysis ->
      if (not !expired) && deadline () then begin
        expired := true;
        Printf.printf
          "\ndeadline reached — skipping the remaining analyses\n"
      end;
      if !expired then ()
      else
      match analysis with
      | P.Tran { tstep; tstop } ->
        Printf.printf "\n.tran %g %g\n" tstep tstop;
        let trace = E.transient eng ~tstop ~dt:tstep in
        let columns =
          List.map
            (fun (name, n) -> ("v(" ^ name ^ ")", E.node_wave eng trace n))
            nodes
        in
        print_series ~csv ~x_label:"time" ~x:trace.E.times ~columns
      | P.Dc_sweep { source; start; stop; step } ->
        Printf.printf "\n.dc %s %g %g %g\n" source start stop step;
        (* Rebuild the deck with the swept source replaced by a Var. *)
        let sweep_ref = ref start in
        let net2 = N.create () in
        List.iter
          (fun e ->
            match e with
            | N.Vsource { name; plus; minus; wave } ->
              let plus = N.node net2 (N.node_name netlist plus) in
              let minus = N.node net2 (N.node_name netlist minus) in
              let wave =
                if String.lowercase_ascii name = source then
                  Vstat_circuit.Waveform.Var sweep_ref
                else wave
              in
              N.vsource net2 name ~plus ~minus ~wave
            | N.Resistor { name; a; b; ohms } ->
              N.resistor net2 name
                ~a:(N.node net2 (N.node_name netlist a))
                ~b:(N.node net2 (N.node_name netlist b))
                ~ohms
            | N.Capacitor { name; a; b; farads } ->
              N.capacitor net2 name
                ~a:(N.node net2 (N.node_name netlist a))
                ~b:(N.node net2 (N.node_name netlist b))
                ~farads
            | N.Isource { name; from_; to_; wave } ->
              N.isource net2 name
                ~from_:(N.node net2 (N.node_name netlist from_))
                ~to_:(N.node net2 (N.node_name netlist to_))
                ~wave
            | N.Mosfet { name; d; g; s; b; dev } ->
              N.mosfet net2 name
                ~d:(N.node net2 (N.node_name netlist d))
                ~g:(N.node net2 (N.node_name netlist g))
                ~s:(N.node net2 (N.node_name netlist s))
                ~b:(N.node net2 (N.node_name netlist b))
                ~dev)
          (N.elements netlist);
        let eng2 = E.compile net2 in
        let nodes2 = List.map (fun name -> (name, N.node net2 name)) names in
        let count = Float.to_int (Float.round (((stop -. start) /. step) +. 1.0)) in
        let xs =
          Array.init count (fun i -> start +. (step *. Float.of_int i))
        in
        let sources = N.vsource_names net2 in
        let guess = ref None in
        let results =
          Array.map
            (fun v ->
              sweep_ref := v;
              let op = E.dc ?guess:!guess eng2 in
              guess := Some (Array.copy op.E.x);
              List.map (fun (_, n) -> E.voltage eng2 op n) nodes2
              @ List.map (fun s -> E.source_current eng2 op s) sources)
            xs
        in
        let labels =
          List.map (fun (name, _) -> "v(" ^ name ^ ")") nodes2
          @ List.map (fun s -> "i(" ^ s ^ ")") sources
        in
        let columns =
          List.mapi
            (fun k label ->
              (label, Array.map (fun r -> List.nth r k) results))
            labels
        in
        print_series ~csv ~x_label:source ~x:xs ~columns
      | P.Ac { points_per_decade; f_start; f_stop; source } ->
        Printf.printf "\n.ac dec %d %g %g (%s)\n" points_per_decade f_start
          f_stop source;
        let decades = log10 (f_stop /. f_start) in
        let points =
          Int.max 2
            (1 + Float.to_int (Float.of_int points_per_decade *. decades))
        in
        let freqs =
          Vstat_util.Floatx.logspace (log10 f_start) (log10 f_stop) points
        in
        let ac = Vstat_circuit.Ac.sweep eng ~op ~source ~freqs_hz:freqs in
        let columns =
          List.concat_map
            (fun (name, n) ->
              let series = Vstat_circuit.Ac.node_transfer eng ac n in
              [
                ( "mag_db(" ^ name ^ ")",
                  Array.map (fun (_, h) -> Vstat_circuit.Ac.magnitude_db h) series );
                ( "phase(" ^ name ^ ")",
                  Array.map (fun (_, h) -> Vstat_circuit.Ac.phase_deg h) series );
              ])
            nodes
        in
        print_series ~csv ~x_label:"freq" ~x:freqs ~columns)
    deck.analyses

let run_deck ~csv ~retry ~inject ~deadline path =
  let deck =
    match P.parse_file path with
    | deck -> deck
    | exception P.Parse_error { line; message } ->
      Printf.eprintf "%s:%d: %s\n" path line message;
      exit 2
    | exception Sys_error message ->
      Printf.eprintf "vstat_sim: %s\n" message;
      exit 2
  in
  Printf.printf "* %s\n" deck.P.title;
  (* Deterministic retry ladder: re-run the whole deck under escalated
     solver options.  The injection key folds in the attempt number, so a
     retried run rolls an independent fault decision. *)
  let rec attempt_loop attempt =
    let netlist =
      match inject with
      | None -> deck.P.netlist
      | Some cfg -> inject_netlist cfg ~attempt deck.P.netlist
    in
    let opts = E.escalate ~attempt E.default_options in
    match
      E.with_options opts (fun () -> run_netlist ~csv ~deadline deck netlist)
    with
    | () -> ()
    | exception ((Vstat_circuit.Diag.Solver_error _ | FI.Injected _) as e) ->
      if attempt + 1 < retry then begin
        Printf.eprintf
          "vstat_sim: attempt %d failed (%s); retrying with escalated \
           solver options\n%!"
          (attempt + 1)
          (Printexc.to_string e);
        attempt_loop (attempt + 1)
      end
      else raise e
  in
  attempt_loop 0

let () =
  (* Strip "--jobs N" (Vstat_runtime worker count, also settable via
     VSTAT_JOBS), "--retry N" and "--inject-fault RATE[:KIND]" before the
     positional parse. *)
  let retry = ref 1 in
  let inject = ref None in
  let deadline = ref Vstat_runtime.Deadline.never in
  let rec extract acc = function
    | "--deadline" :: v :: rest -> (
      match float_of_string_opt v with
      | Some s when Float.is_finite s && s > 0.0 ->
        (* Built once, at CLI-parse time: the budget covers the whole
           invocation, not each analysis separately. *)
        deadline := Vstat_runtime.Deadline.watchdog ~seconds:s;
        extract acc rest
      | _ ->
        prerr_endline
          "vstat_sim: --deadline expects a positive number of seconds";
        exit 2)
    | "--jobs" :: v :: rest -> (
      match int_of_string_opt v with
      | Some j when j >= 1 ->
        Vstat_runtime.Runtime.set_default_jobs j;
        extract acc rest
      | _ ->
        prerr_endline "vstat_sim: --jobs expects a positive integer";
        exit 2)
    | "--retry" :: v :: rest -> (
      match int_of_string_opt v with
      | Some r when r >= 1 ->
        retry := r;
        extract acc rest
      | _ ->
        prerr_endline "vstat_sim: --retry expects a positive integer";
        exit 2)
    | "--inject-fault" :: v :: rest -> (
      match FI.parse_spec v with
      | Ok cfg ->
        inject := Some cfg;
        extract acc rest
      | Error msg ->
        Printf.eprintf "vstat_sim: --inject-fault: %s\n" msg;
        exit 2)
    | a :: rest -> extract (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = extract [] (List.tl (Array.to_list Sys.argv)) in
  let retry = !retry and inject = !inject and deadline = !deadline in
  match args with
  | [ path ] -> run_deck ~csv:false ~retry ~inject ~deadline path
  | [ path; "--csv" ] | [ "--csv"; path ] ->
    run_deck ~csv:true ~retry ~inject ~deadline path
  | _ ->
    prerr_endline
      "usage: vstat_sim <deck.sp> [--csv] [--jobs N] [--retry N] \
       [--inject-fault RATE[:KIND]] [--deadline SEC]";
    exit 2
