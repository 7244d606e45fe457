(* The only user of Api.test_only. *)
let probe = Unused_fixture.Api.test_only
