(** Structured trace events over virtual time.

    A bounded ring buffer of span ([Complete]) and point ([Instant]) events,
    timestamped in nanoseconds by a settable clock —
    [Smapp_sim.Engine.create] and [Smapp_sim.Engine.run] install the
    simulation clock, so traces line up with the discrete-event timeline
    rather than wall time. Exports to the Chrome [trace_event] JSON format
    (loadable in [chrome://tracing] / Perfetto) and to an ASCII span
    timeline for the terminal.

    The ring and the clock live in the current [Scope], with the metric
    cells and the profiler's state; [Scope.clear] empties the ring.
    Recording entry points check the one switch, [Scope.enabled], first;
    when it is off each call is a load and a fall-through branch. *)

type kind = Scope.kind = Complete | Instant

type event = Scope.event = {
  ev_ts_ns : int;
  ev_dur_ns : int;  (** 0 for instants *)
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
  ev_kind : kind;
}

val set_clock : (unit -> int) -> unit
(** Install the virtual-time source (nanoseconds) into the current scope.
    The default clock returns 0. *)

val set_capacity : int -> unit
(** Resize the ring buffer; existing events are discarded. Default
    capacity: 65536. *)

val capacity : unit -> int

val recorded : unit -> int
(** Events recorded over the buffer's lifetime (including evicted ones). *)

val dropped : unit -> int
(** Events evicted by ring wrap-around. *)

val events : unit -> event list
(** Buffered events, oldest first. *)

val instant : ?args:(string * string) list -> cat:string -> string -> unit
(** Record a point event at the current virtual time. *)

val complete :
  ?args:(string * string) list ->
  cat:string ->
  start_ns:int ->
  ?end_ns:int ->
  string ->
  unit
(** Record a span from [start_ns] to [end_ns] (default: now). *)

val with_span : cat:string -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span ending when it returns (or raises). *)

val export_chrome : unit -> string
(** Buffered events as a Chrome [trace_event] JSON document. *)

val export_chrome_file : string -> unit

val timeline : ?width:int -> unit -> string
(** ASCII span timeline: one track per distinct [cat:name], ['='] for span
    extents, ['|'] for instants, over a [width]-column (default 64) virtual
    time axis. *)

val span_summary : unit -> (string * Smapp_stats.Summary.t) list
(** Duration statistics (microseconds) per [cat:name], in first-appearance
    order. Only [Complete] events contribute. *)

val summary_table : unit -> string
(** {!span_summary} rendered as an aligned text table. *)

val mean_duration_us : cat:string -> name:string -> float option
(** Mean duration in microseconds of the named span, if recorded. *)
