(* Api's other users: a direct reference, a use through a module alias,
   and an include, which uses every value of Api.Whole.  Both go through
   the library's dune wrapper.  Of the optional labels, [f] gets [~used]
   written, [forwarded] gets [?used] passed on, and [unapplied] is
   referenced without an application, which may pass any label; only
   [f]'s [?unused] is left, elided by every call. *)
module A = Unused_fixture.Api

let total = Unused_fixture.Api.used + A.via_alias

include Unused_fixture.Api.Whole

let direct = A.f ~used:1 () + A.f ()

let forward ?used () = A.forwarded ?used ()

let unapplied = A.unapplied
