let used = 1
let unused = 2
let granted = 3
let via_alias = 4

module Whole = struct
  let whole = 5
end
