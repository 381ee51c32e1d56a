(** Round-trip-time estimation and retransmission timeout, RFC 6298.

    SRTT/RTTVAR use the standard EWMA gains (1/8, 1/4); the RTO starts at
    1 s and is clamped to [\[min_rto, max_rto\]], 200 ms and 120 s, like
    Linux. *)

open Smapp_sim

type t

val min_rto : Time.span
val initial_rto : Time.span

val create : unit -> t

val sample : t -> Time.span -> unit
(** Feed one RTT measurement (from a never-retransmitted segment — Karn's
    algorithm is the caller's responsibility). *)

val srtt : t -> Time.span option
(** [None] before the first sample. Boxes a [Some]; per-ack readers use
    {!has_srtt}/{!srtt_value}. *)

val has_srtt : t -> bool
(** Whether a sample has arrived yet. *)

val srtt_value : t -> Time.span
(** Allocation-free SRTT read; only meaningful once {!has_srtt}. *)

val rto : t -> Time.span
(** Current base RTO (without exponential backoff). *)

val backoff : Time.span -> int -> Time.span
(** [backoff base n] doubles [base] [n] times, clamped to [max_rto]. *)
