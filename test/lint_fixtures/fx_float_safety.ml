(* Positive and negative fixtures for the float-compare rule.  Line
   numbers are pinned by the golden test in ../test_lint.ml. *)

let bad_eq x = x = 1.0

let bad_ne x = x <> 0.5

let bad_compare x = compare x 2.0

let bad_min x = min (x : float) 3.0

let bad_max_tuple a b = max (a, 1.0) (b, 2.0)

(* Negatives: explicit float comparators and an inline suppression. *)
let ok_float_equal x = Float.equal x 1.0

let ok_float_compare x = Float.compare x 2.0

let ok_suppressed x = ((x = 1.0) [@vstat.allow "float-compare"])

(* The typed rule sees what syntax could not: a bare [compare] at float,
   and floats reached through a record field. *)
type point = { x : float }

let bad_sort_floats (xs : float list) = List.sort compare xs

let bad_field_literal r = r.x = 1.0

let bad_field_pair r s = r.x = s.x

(* Negative: a tuple that holds no float orders the same either way. *)
let ok_int_tuple a b = compare (a, 1) (b, 2)

(* Records and abbreviations are decided from their declarations: a record
   with a float field and an abbreviation of float hold one; a record of
   ints does not.  A recursive type ends the search. *)
let bad_record a b = a = { x = b }

type v = float

let bad_abbrev (a : v) (b : v) = a = b

type counts = { hits : int; misses : int }

let ok_int_record (a : counts) b = a = b

type chain = { next : chain option; n : int }

let ok_recursive (a : chain) b = compare a b
