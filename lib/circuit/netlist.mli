(** Circuit netlist builder.

    Nodes are created by name ("vdd", "out", …); the reserved name "0" (or
    {!ground}) is the reference node.  Elements reference nodes by the
    handles returned from {!node}.  The builder is mutable; once handed to
    the engine the structure is treated as frozen. *)

type node
(** Opaque node handle. *)

type t

type element =
  | Resistor of { name : string; a : node; b : node; ohms : float }
  | Capacitor of { name : string; a : node; b : node; farads : float }
  | Vsource of { name : string; plus : node; minus : node; wave : Waveform.t }
  | Isource of { name : string; from_ : node; to_ : node; wave : Waveform.t }
      (** Positive current flows from [from_] to [to_] through the source. *)
  | Mosfet of {
      name : string;
      d : node;
      g : node;
      s : node;
      b : node;
      dev : Vstat_device.Device_model.t;
    }

val create : unit -> t

val ground : t -> node
(** The reference node (0 V by definition). *)

val node : t -> string -> node
(** Get or create a named node. *)

val node_name : t -> node -> string
val node_index : node -> int
(** 0 for ground, 1.. for unknowns (engine use). *)

val resistor : t -> string -> a:node -> b:node -> ohms:float -> unit
val capacitor : t -> string -> a:node -> b:node -> farads:float -> unit
val vsource : t -> string -> plus:node -> minus:node -> wave:Waveform.t -> unit
val isource : t -> string -> from_:node -> to_:node -> wave:Waveform.t -> unit

val mosfet :
  t -> string ->
  d:node -> g:node -> s:node -> b:node ->
  dev:Vstat_device.Device_model.t -> unit

val elements : t -> element list
(** Elements in insertion order. *)

val node_count : t -> int
(** Number of non-ground nodes. *)

val vsource_names : t -> string list
(** Voltage-source names in insertion order (their branch currents are part
    of the MNA solution vector, in this order). *)

val all_nodes : t -> (string * node) list
(** Every non-ground node with its primary name, in creation order. *)
