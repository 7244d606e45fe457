val used : int
val unused : int
val granted : int [@@vstat.allow "unused-export"]
val via_alias : int

module Whole : sig
  val whole : int
end
val f : ?used:int -> ?unused:int -> unit -> int
val forwarded : ?used:int -> unit -> int
val unapplied : ?used:int -> unit -> int
val test_only : int
