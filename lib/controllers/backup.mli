(** The §4.2 smart-backup controller.

    RFC 6824 backup subflows only engage when the primary subflow *fails*,
    but a wireless primary can be merely terrible: with 30% loss the kernel
    keeps doubling the retransmission timer for ~12 minutes before giving
    up (the [backoff] experiment measures this). This controller implements
    break-before-make instead: the backup subflow is not established in
    advance (saving radio energy); when a [timeout] event reports an RTO
    above the threshold, the underperforming subflow is closed and a new
    subflow is created over the backup interface. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


open Smapp_sim
open Smapp_netsim

type config = {
  rto_threshold : Time.span;  (** default 1 s *)
  backup_sources : Ip.t list;
      (** local addresses to fail over to, in order of preference *)
  backup_destination : Ip.endpoint option;
      (** [None]: keep the initial destination *)
  max_failovers : int;
      (** per-connection cap on primary-to-backup switches (default 8): a
          mobile client bouncing between radios must degrade into plain
          TCP retries, not an unbounded create/remove storm *)
}

val default_config : backup_sources:Ip.t list -> unit -> config

type t

val start : Pm_lib.t -> config -> t
(** Each connection gets its own handlers: its own shelf of
    [backup_sources] and its own [max_failovers] budget. *)

val failovers : t -> int
(** Number of primary-to-backup switches performed. *)
