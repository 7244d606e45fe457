(* Deep-pass fixture: the field name [n] is mutable in [counter] and
   immutable in [snapshot].  The typed label decides, so the access to
   [live] is a finding and the read of [frozen] is not. *)

type counter = { mutable n : int }
type snapshot = { n : int }

let live : counter = { n = 0 }
let frozen : snapshot = { n = 0 }

let run () =
  let d = Domain.spawn (fun () -> live.n <- frozen.n) in
  Domain.join d
