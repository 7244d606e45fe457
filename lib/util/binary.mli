(** The little-endian binary layout shared by the checkpoint journal
    ({!Vstat_runtime.Journal}) and the vstatd wire protocol
    ([Vstat_service.Protocol]): unsigned 32-bit integers, 64-bit
    integers, and strings as a u32 length followed by the bytes.

    Decoding reads through a {!cursor} bounded by [limit] and raises
    {!Truncated} when the input ends early; each caller maps that to its
    own typed error. *)

val add_u32 : Buffer.t -> int -> unit
(** The low 32 bits of the int. *)

val add_i64 : Buffer.t -> int64 -> unit

val add_str : Buffer.t -> string -> unit
(** u32 length, then the bytes. *)

exception Truncated of string
(** [Truncated what]: the input ended while reading [what]. *)

type cursor = { src : string; limit : int; mutable pos : int }
(** Reads [src] from [pos] up to, not including, [limit]. *)

val need : cursor -> int -> string -> unit
(** [need cur k what] raises {!Truncated}[ what] unless [k] bytes remain. *)

val get_u32 : cursor -> string -> int
(** In [0, 2{^32}). *)

val get_i64 : cursor -> string -> int64

val get_raw : cursor -> int -> string -> string
(** [get_raw cur k what]: the next [k] bytes. *)

val get_str : cursor -> string -> string
(** A string written by {!add_str}; its length is read as
    [what ^ " length"]. *)
