(* The sibling unit that keeps Fx_exports' clean exports alive. *)

let total () =
  Fx_exports.used_by_sibling 1 + Fx_exports.wrapper 2 + Fx_exports.tuned ~passed:3 ()
