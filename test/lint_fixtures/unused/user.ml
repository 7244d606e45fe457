(* Api's other users: a direct reference, a use through a module alias,
   and an include, which uses every value of Api.Whole. *)
module A = Api

let total = Api.used + A.via_alias

include Api.Whole
