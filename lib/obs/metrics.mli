(** A metrics registry: counters, gauges and log-bucketed histograms with
    static labels, in the Prometheus data model.

    Handles are registered once at module initialisation and updated from
    hot paths. Every update entry point checks {!enabled} first: with
    observability off (the default and the release configuration) an update
    is one immediate load and a fall-through branch — the same discipline
    as [Tcb.checks_enabled]. That cost is inside perfbench's untraced
    runs; the bench's [obs] section budgets what switching it on costs.
    Registration itself is never gated.

    Handles are pure identity; the values live in a {!Scope.t}, and the
    current scope is domain-local. Each domain starts with a private root
    scope, so parallel sweep workers cannot observe each other's updates;
    [Scope.with_scope] installs a fresh scope around one job, which is how
    [Smapp_par.Ctx] isolates per-seed runs. Every reader
    ({!value}, {!to_prometheus}, {!clear}, ...) acts on the current
    scope. *)

type labels = (string * string) list
(** Static label pairs, fixed at registration. *)

val enabled : bool Atomic.t
(** Master switch for all metric updates. Default [false]. Atomic: worker
    domains read it on every update while the main domain toggles it
    between phases. *)

type counter
type gauge
type histogram

val counter : ?help:string -> ?labels:labels -> string -> counter
(** Registers (or returns the existing) counter for [(name, labels)]:
    calling twice with the same identity yields the same handle. Raises
    [Invalid_argument] if the name is already registered as a different
    metric kind. *)

val gauge : ?help:string -> ?labels:labels -> string -> gauge

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

val clear : unit -> unit
(** Zero every registered metric's value in the current scope;
    registrations survive. *)

module Scope : sig
  type t
  (** A value store: one cell per registered handle, created lazily on
      first touch. *)

  val create : unit -> t
  (** A fresh scope with every metric at zero. *)

  val with_scope : t -> (unit -> 'a) -> 'a
  (** Run the thunk with [t] installed as the current domain's scope;
      the previous scope is restored on return or raise. *)

  val current : unit -> t
  (** The calling domain's current scope (its root scope unless inside
      {!with_scope}). *)
end

val to_prometheus : ?names:string list -> unit -> string
(** Prometheus text exposition, families in registration order.
    [names] restricts the export to the listed metric names. *)

val to_json : ?names:string list -> unit -> Smapp_stats.Json.t
(** The same export as {!to_prometheus} as a JSON array, one object per
    registered metric in registration order: [name]/[type]/[labels] plus
    [value] (counters, gauges) or [buckets]/[sum]/[count] (histograms;
    bucket counts are per-bucket, not cumulative). For tools that consume
    metrics without parsing text. *)

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

val families : unit -> (string * labels * metric) list
(** Every registered metric in registration order. *)
