type level = Debug | Info | Warn | Error

let severity = function Debug -> 0 | Info -> 1 | Warn -> 2 | Error -> 3
let level_name = function Debug -> "debug" | Info -> "info" | Warn -> "warn" | Error -> "error"

(* Atomic: worker domains read the threshold on every thunked call while
   the main domain may adjust it between phases. *)
let threshold = Atomic.make Warn
let set_level l = Atomic.set threshold l
let level () = Atomic.get threshold

(* Atomic: sweep worker domains may emit concurrently. *)
let emitted_count = Atomic.make 0
let emitted () = Atomic.get emitted_count

(* The default sink is the one place in lib/** allowed to write raw stderr
   (allowlisted for the naked-print rule): every other module routes
   diagnostics through [msg]/[debug]/... so a host application can
   redirect or silence them with [set_sink]. *)
let default_sink l s =
  Printf.eprintf "[smapp %-5s] %s\n%!" (level_name l) s

let sink = Atomic.make default_sink
let set_sink f = Atomic.set sink f
let reset_sink () = Atomic.set sink default_sink

let enabled_for l = severity l >= severity (Atomic.get threshold)

let msg l s =
  if enabled_for l then begin
    Atomic.incr emitted_count;
    (Atomic.get sink) l s
  end

(* Thunked variants: the message string is only built when the level is
   enabled, so a hot-path [debug] is a load and a branch. *)
let log l f = if enabled_for l then msg l (f ())
let debug f = log Debug f
let info f = log Info f
let warn f = log Warn f
let error f = log Error f
