(* Reaches its export only through a module alias: the rule matches the
   value, not the path it was spelled with. It also restates a record and
   reads its field only through the restated type. *)

module E = Fx_exports

let via_alias () = E.used_through_alias 4

type restated = E.shared = { through_restated : int }

let via_restated (r : restated) = r.through_restated
