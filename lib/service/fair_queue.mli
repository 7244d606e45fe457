(** Round-robin fair queue across client identities.

    Jobs are tagged with an opaque client id at [push] time; [pop] serves
    clients round-robin in first-arrival rotation order, one job per turn,
    so after any [t] pops the per-client service counts differ by at most
    one among clients that still hold jobs.  A client submitting a burst
    of work delays only itself.  FIFO order is preserved within a client.

    Purely deterministic in the operation sequence: the structure never
    iterates a hash table in bucket order, reads a clock, or draws
    randomness — the qcheck skew property in [test/test_service.ml] pins
    the fairness bound. *)

type 'a t

val create : unit -> 'a t
val length : 'a t -> int
val is_empty : 'a t -> bool

val push : 'a t -> client:string -> 'a -> unit
(** Append to [client]'s line (registering the client at the back of the
    rotation if it had no pending jobs). *)

val push_front : 'a t -> client:string -> 'a -> unit
(** Prepend to [client]'s line: the requeue path for a crashed or hung
    worker's job — it runs next {e for that client} without jumping other
    clients' turns. *)

val pop : 'a t -> 'a option
(** Next job in round-robin order, or [None] when empty. *)

val clients : 'a t -> int
(** Number of distinct clients with pending jobs. *)
