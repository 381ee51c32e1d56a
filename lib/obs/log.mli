(** Leveled diagnostics for the smapp libraries.

    The analyzer rule {b naked-print} forbids raw [Printf.eprintf] /
    [print_endline] under [lib/**]: library diagnostics go through this
    module instead, so an embedding application can redirect them
    ([set_sink]) or silence them ([set_level]). The default sink writes
    one line per message to stderr. *)

type level = Debug | Info | Warn | Error

val set_level : level -> unit
(** Messages strictly below this level are dropped before their string is
    built. Default: [Warn]. *)

val level : unit -> level
val level_name : level -> string

val set_sink : (level -> string -> unit) -> unit
(** Replace the output routine for enabled messages. *)

val reset_sink : unit -> unit

val msg : level -> string -> unit
(** Emit an already-built message at the given level. *)

val debug : (unit -> string) -> unit
(** Thunked: the string is only built when the level is enabled, so a
    hot-path call costs a load and a branch. *)

val info : (unit -> string) -> unit
val warn : (unit -> string) -> unit
val error : (unit -> string) -> unit

val emitted : unit -> int
(** Messages delivered to the sink over the process lifetime. *)
