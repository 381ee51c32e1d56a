(* Laid out so that this file numbers [read_here] as fx_uids.mli numbers
   [unread]: a rule matching reads from this unit against the .mli's
   labels would take [unread] for read. *)

type t = { unread : int; read_here : int }

let get r = r.read_here
let make x = { unread = x; read_here = x }

type pad = int
