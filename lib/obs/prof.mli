(** Performance profiling: per-subsystem self-time and allocation
    attribution, and per-event-class dispatch accounting.

    Two instruments keep their state in the current {!Scope.t}, beside
    the metric cells and the trace ring:

    {b Frames.} Subsystems bracket work with {!enter}/{!exit_frame} (or
    {!with_frame} off the hot path). Frames nest into a call tree; each
    node accumulates count, wall time, allocated bytes, and their {e self}
    variants with every child frame's share subtracted — so summing self
    over the whole tree reconciles exactly with the root totals, which is
    the invariant `smapp prof` checks against wall time and
    [Gc.allocated_bytes].

    {b Event classes.} [Smapp_sim.Engine.run] brackets every dispatched
    callback with {!dispatch_begin}/{!dispatch_end}; the callback names
    its class with {!mark} (last mark wins). Each class accumulates
    events, wall time, minor-heap allocation (plus a log2 bytes-per-event
    histogram) and minor/major collection counts.

    Every entry point loads the one observability switch and falls
    through when it is off — the same load-and-branch budget as
    [Metrics]/[Trace]. That cost is inside perfbench's untraced runs
    (BENCHMARK.json), the simulator's timing of record. [Scope.clear]
    zeroes the tree and the classes.

    Wall-clock caveat: this module reads [Unix.gettimeofday] — real CPU
    cost is exactly the quantity the determinism model excludes from
    simulation results. Reports are for humans and perfbench, never for
    digests. *)

val enabled : bool Atomic.t
(** The one observability switch, {!Scope.enabled}, under this name too. *)

module Scope = Scope
(** The one scope, under this name too. *)

(** {1 Frames} *)

val enter : string -> unit
(** Push a frame labelled [label] under the current frame (or at top
    level). Explicit enter/exit exists for hot callbacks that cannot
    afford {!with_frame}'s closure; an exception escaping between
    {!enter} and {!exit_frame} leaks the frame (engine dispatch treats
    callback exceptions as fatal, so this is the crash path only). *)

val exit_frame : unit -> unit
(** Pop the current frame, charging elapsed wall time and allocated
    bytes to it (and subtracting them from the parent's self columns). *)

val with_frame : string -> (unit -> 'a) -> 'a
(** [with_frame label f] runs [f] inside a frame; exception-safe. When
    disabled this is a call to [f] behind one Atomic load. *)

(** {1 Event classes} *)

type event_class = Timer | Link_delivery | Netlink | Controller

val mark : event_class -> unit
(** Classify the event currently being dispatched. The last mark before
    the callback returns wins, so the most specific subsystem reached
    (e.g. the controller behind a netlink crossing) gets the event. An
    unmarked dispatch counts as [Timer]. *)

val enter_class : event_class -> string -> unit
(** {!mark} plus {!enter} under a single enabled check — the shape hot
    callbacks use. Pair with {!exit_frame}. *)

val dispatch_begin : unit -> unit
(** Engine hook: open the per-event measurement bracket (wall clock,
    minor words, GC collection counters). Callers must check {!enabled}
    themselves — the engine guards the whole bracket with one load. *)

val dispatch_end : unit -> unit
(** Engine hook: close the bracket and charge the event, and any
    collections that ran inside it, to its class. *)

(** {1 Reports} *)

type frame_stat = {
  f_label : string;
  f_count : int;
  f_total_ns : float;
  f_self_ns : float;
  f_total_bytes : float;
  f_self_bytes : float;
  f_children : frame_stat list;
}

type class_stat = {
  c_class : event_class;
  c_events : int;
  c_ns : float;
  c_bytes : float;
  c_minor_gcs : int;
  c_major_gcs : int;
  c_hist : int array;
      (** log2 bytes-per-event buckets: cell 0 counts zero-alloc events,
          cell [i>0] counts events allocating in (2{^i-1}, 2{^i}] bytes. *)
}

type report = {
  p_events : int;  (** dispatches accounted by the engine brackets *)
  p_truncated : int;  (** frames beyond the depth bound, not recorded *)
  p_frames : frame_stat list;
  p_classes : class_stat list;
}

val report : unit -> report
(** Freeze the current scope into an immutable report. *)

val total_ns : report -> float
(** Wall time across top-level frames. *)

val total_bytes : report -> float

val sum_self_ns : frame_stat -> float
(** Self time summed over a subtree; equals the subtree's [f_total_ns]
    by construction (the reconciliation invariant the tests pin). *)

val sum_self_bytes : frame_stat -> float

val render : report -> string
(** Text flame report: one indented row per node with share bars, total
    and self columns, then the event-class table. *)

val report_json : report -> Smapp_stats.Json.t
