let used = 1
let unused = 2
let granted = 3
let via_alias = 4

module Whole = struct
  let whole = 5
end

let f ?(used = 0) ?(unused = 0) () = used + unused
let forwarded ?(used = 0) () = used
let unapplied ?(used = 0) () = used
let test_only = 6
