type node = int

type element =
  | Resistor of { name : string; a : node; b : node; ohms : float }
  | Capacitor of { name : string; a : node; b : node; farads : float }
  | Vsource of { name : string; plus : node; minus : node; wave : Waveform.t }
  | Isource of { name : string; from_ : node; to_ : node; wave : Waveform.t }
  | Mosfet of {
      name : string;
      d : node;
      g : node;
      s : node;
      b : node;
      dev : Vstat_device.Device_model.t;
    }

type t = {
  mutable names : (string * node) list;  (* reverse lookup, small circuits *)
  mutable next_node : int;
  mutable elems : element list;          (* reverse insertion order *)
}

let create () = { names = [ ("0", 0); ("gnd", 0) ]; next_node = 1; elems = [] }

let ground _ = 0

let node t name =
  match List.assoc_opt name t.names with
  | Some n -> n
  | None ->
    let n = t.next_node in
    t.next_node <- n + 1;
    t.names <- (name, n) :: t.names;
    n

let node_name t n =
  match List.find_opt (fun (_, i) -> i = n) (List.rev t.names) with
  | Some (name, _) -> name
  | None -> Printf.sprintf "<node %d>" n

let node_index n = n

let add t e = t.elems <- e :: t.elems

let resistor t name ~a ~b ~ohms =
  if ohms <= 0.0 then
    invalid_arg "Netlist.resistor: ohms must be positive"
    [@vstat.allow "exn-discipline"];
  add t (Resistor { name; a; b; ohms })

let capacitor t name ~a ~b ~farads =
  if farads < 0.0 then
    invalid_arg "Netlist.capacitor: negative capacitance"
    [@vstat.allow "exn-discipline"];
  add t (Capacitor { name; a; b; farads })

let vsource t name ~plus ~minus ~wave = add t (Vsource { name; plus; minus; wave })
let isource t name ~from_ ~to_ ~wave = add t (Isource { name; from_; to_; wave })

let mosfet t name ~d ~g ~s ~b ~dev = add t (Mosfet { name; d; g; s; b; dev })

let elements t = List.rev t.elems

let node_count t = t.next_node - 1

let vsource_names t =
  List.filter_map
    (function Vsource { name; _ } -> Some name | _ -> None)
    (elements t)

let all_nodes t =
  List.filter (fun (_, n) -> n <> 0) (List.rev t.names)
