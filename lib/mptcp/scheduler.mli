(** Packet schedulers: which subflow carries the next chunk of data.

    The default Linux MPTCP scheduler "prefers the subflow with the lowest
    round-trip-time provided that its congestion window is open" (paper §2);
    backup subflows are used only when no regular subflow is alive. *)

type t

val choose : t -> min_space:int -> Subflow.t list -> Subflow.t
(** Pick among subflows that are established and have at least
    [min_space] bytes of window open — callers pass one MSS so sub-MSS
    slivers never win over a subflow with real room. Raises [Not_found]
    when none qualifies. {!lowest_rtt} decides in one pass over the list
    and allocates nothing. *)

val lowest_rtt : t
(** The Linux default: the earliest subflow with the least srtt.
    Subflows without an RTT estimate (srtt 0) win over ones with (they
    must be probed), matching Linux's preference for fresh subflows. *)

val round_robin : unit -> t
(** Stateful rotation across usable subflows. *)
