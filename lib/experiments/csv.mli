(** Tiny CSV writer for exporting experiment series to plotting tools. *)

val write_columns :
  dir:string -> name:string -> (string * float array) list -> string
(** Column-oriented variant: pads shorter columns with empty cells. *)
