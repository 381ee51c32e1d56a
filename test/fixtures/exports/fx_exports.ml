let used_by_sibling x = x + 1
let used_through_alias x = x + 2
let used_only_inside x = x * 2
let wrapper x = used_only_inside x + 1
let unused x = x - 1
let tuned ?(passed = 0) ?(never = 0) () = passed + never
