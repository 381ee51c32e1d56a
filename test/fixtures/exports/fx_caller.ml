(* The sibling unit that keeps Fx_exports' clean exports alive. *)

let total () =
  Fx_exports.used_by_sibling 1 + Fx_exports.wrapper 2 + Fx_exports.tuned ~passed:3 ()

let fields () =
  let r = Fx_exports.make 1 in
  let c = Fx_exports.reset { Fx_exports.kept = 1; replaced = 2 } in
  Fx_exports.sum r + r.Fx_exports.by_sibling + c.Fx_exports.replaced
  + Fx_uids.get (Fx_uids.make 1)
