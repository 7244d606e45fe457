(* Api's other users: a direct reference, a use through a module alias,
   and an include, which uses every value of Api.Whole.  Both go through
   the library's dune wrapper. *)
module A = Unused_fixture.Api

let total = Unused_fixture.Api.used + A.via_alias

include Unused_fixture.Api.Whole
