(* Plain TCP over a [Stack], for the suites: the default config unless
   one is given, no options, not a backup. *)

open Smapp_tcp

let connect ?(config = Tcb.default_config) stack ~src ~dst ?src_port cbs =
  Stack.connect stack ~src ~dst ?src_port ~config ~backup:false ~syn_options:[] cbs

(* From a listener's handler: open [syn]'s TCB with [cbs]. *)
let accept ?(config = Tcb.default_config) stack cbs syn =
  Stack.accept stack syn ~config ~synack_options:[] cbs

let listen ?config stack ~port cbs =
  Stack.listen stack ~port (fun syn -> ignore (accept ?config stack cbs syn))
