let used_by_sibling x = x + 1
let used_through_alias x = x + 2
let used_only_inside x = x * 2
let wrapper x = used_only_inside x + 1
let unused x = x - 1
let tuned ?(passed = 0) ?(never = 0) () = passed + never

type fields = {
  by_dot : int;
  by_pattern : int;
  by_sibling : int;
  never : int;
  mutable written : int;
}

let make x = { by_dot = x; by_pattern = x; by_sibling = x; never = x; written = 0 }

let sum r =
  let { by_pattern; never = _; _ } = r in
  r.written <- by_pattern;
  r.by_dot + by_pattern

type copied = { kept : int; replaced : int }

let reset c = { c with replaced = 0 }

type shared = { through_restated : int }
