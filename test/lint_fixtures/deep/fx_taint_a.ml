(* Deep-pass fixture: determinism-taint entry points.  [hot_entry] reaches
   Random.float through the 3-module chain a -> b -> c and is reported;
   [sanctioned_entry] takes the same path but carries the binding-level
   allow and must stay silent. *)

let[@vstat.entry] hot_entry x = Fx_taint_b.middle x +. 1.0

let sanctioned_entry x =
  Fx_taint_b.middle x *. 2.0
[@@vstat.entry] [@@vstat.allow "determinism-taint"]

(* The same chain through a [let module] alias and through an [open]: the
   typed paths resolve both, so both are reported. *)
let[@vstat.entry] module_entry x =
  let module B = Fx_taint_b in
  B.middle x

let[@vstat.entry] open_entry x =
  let open Fx_taint_b in
  middle x
