(* Root of the domain-safety chain fixture: the Domain.spawn makes [run] a
   domain root, so everything it reaches runs on at least two domains. *)

let run () =
  let d = Domain.spawn (fun () -> Fx_domain_mid.touch ()) in
  Domain.join d

(* A second root that reaches the same state only through Mutex.protect:
   it must stay silent. *)
let run_guarded () =
  let d = Domain.spawn (fun () -> Fx_domain_state.guarded_bump ()) in
  Domain.join d
