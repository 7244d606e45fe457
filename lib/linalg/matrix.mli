(** Dense, row-major matrices of floats.

    Everything in this repository is small (circuit MNA systems of a few
    dozen unknowns, BPV systems of a few dozen equations), so a simple dense
    representation with O(n^3) factorizations is the right tool. *)

type t
(** A mutable [rows] x [cols] matrix. *)

val create : rows:int -> cols:int -> t
(** Zero-filled matrix. *)

val init : rows:int -> cols:int -> f:(int -> int -> float) -> t
(** [init ~rows ~cols ~f] fills entry (i, j) with [f i j]. *)

val identity : int -> t

val of_rows : float array array -> t
(** Build from row arrays; all rows must have equal length. *)

val rows : t -> int
val cols : t -> int

val buffer : t -> float array
(** The underlying flat row-major storage: entry (i, j) lives at index
    [i * cols m + j].  Exposed for the allocation-free hot loops (LU,
    circuit assembly): under classic (non-flambda) ocamlopt an out-of-line
    {!get}/{!set}/{!add_to} call boxes its float argument or result, so the
    inner loops index the buffer directly.  The array aliases the matrix —
    writes through one are visible through the other.  No bounds checks
    beyond the array's own. *)

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit
val add_to : t -> int -> int -> float -> unit
(** [add_to m i j v] is [set m i j (get m i j +. v)] — the MNA "stamp". *)

val copy : t -> t

val mul_vec : t -> float array -> float array
(** Matrix–vector product. *)

val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t

val max_abs : t -> float
(** Largest absolute entry (infinity-like norm helper). *)
