(* Reaches its export only through a module alias: the rule matches the
   value, not the path it was spelled with. *)

module E = Fx_exports

let via_alias () = E.used_through_alias 4
