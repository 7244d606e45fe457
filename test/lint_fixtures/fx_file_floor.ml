(* The [@@@vstat.allow] file floor: a float-compare after the floor
   attribute is sanctioned by it, one before it is still reported. *)

let bad_before_floor x = x = 0.5

[@@@vstat.allow "float-compare"]

let ok_floored x = x = 1.0

let ok_floored_too x = compare x 2.0
