(** The §4.4 refresh controller for flow-based load-balanced networks
    ("implemented in only 230 lines of C").

    ECMP routers hash each subflow's four-tuple onto one of the parallel
    paths, so with [n] subflows over [m] paths some may collide. The
    controller opens [n] subflows with random source ports and then, every
    2.5 s (as in the paper), queries each subflow's [pacing_rate],
    removes the slowest subflow and immediately opens a replacement with a
    fresh random port — re-rolling the ECMP dice until all paths are in
    use. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg

type config = { subflows : int  (** 5 in the paper's experiment *) }

val default_config : ?subflows:int -> unit -> config
(** Refresh every 2.5 s once [subflows] (default 5) are established. *)

type t

val start : Pm_lib.t -> config -> t

val refreshes : t -> int
(** Subflows removed-and-replaced so far. *)

val polls : t -> int
