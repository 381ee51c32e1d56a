(** A metrics registry: counters, gauges and log-bucketed histograms with
    static labels, in the Prometheus data model.

    Handles are registered once at module initialisation and updated from
    hot paths. Every update entry point checks the one observability
    switch first: with observability off (the default and the release
    configuration) an update is one immediate load and a fall-through
    branch — the same discipline as [Tcb.checks_enabled]. That cost is
    inside perfbench's untraced runs. Registration itself is never gated.

    Handles are pure identity; the values live in the current
    {!Scope.t}, which is domain-local and shared with [Trace] and [Prof].
    Every reader ({!value}, {!to_prometheus}, ...) acts on the current
    scope, and [Scope.clear] zeroes it. *)

type labels = (string * string) list
(** Static label pairs, fixed at registration. *)

val enabled : bool Atomic.t
(** The one observability switch, {!Scope.enabled}, under this name too. *)

module Scope = Scope
(** The one scope, under this name too. *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:labels -> string -> counter
(** Registers (or returns the existing) counter for [(name, labels)]:
    calling twice with the same identity yields the same handle. Raises
    [Invalid_argument] if the name is already registered as a different
    metric kind. *)

val gauge : ?help:string -> string -> gauge

val histogram :
  ?help:string ->
  ?labels:labels ->
  ?base:float ->
  ?growth:float ->
  ?buckets:int ->
  string ->
  histogram
(** Log-bucketed histogram: upper bounds [base * growth^i] for
    [i < buckets] plus an implicit [+Inf] bucket. Defaults
    ([base]=1000, [growth]=4, [buckets]=16) cover 1 us to ~1000 s in
    nanoseconds. An observation equal to a bound lands in that bound's
    bucket ([le] semantics). *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val value : counter -> int
val gauge_value : gauge -> float

val bucket_bounds : histogram -> float array

val bucket_counts : histogram -> int array
(** Per-bucket (non-cumulative) counts; the extra final cell is the
    [+Inf] bucket. *)

val histogram_sum : histogram -> float
val histogram_count : histogram -> int

val to_prometheus : ?names:string list -> unit -> string
(** Prometheus text exposition, families in registration order.
    [names] restricts the export to the listed metric names. *)

val to_json : unit -> Smapp_stats.Json.t
(** The same export as {!to_prometheus} as a JSON array, one object per
    registered metric in registration order: [name]/[type]/[labels] plus
    [value] (counters, gauges) or [buckets]/[sum]/[count] (histograms;
    bucket counts are per-bucket, not cumulative). For tools that consume
    metrics without parsing text. *)

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

val families : unit -> (string * labels * metric) list
(** Every registered metric in registration order. *)
