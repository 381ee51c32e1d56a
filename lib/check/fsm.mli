(** State-machine conformance checking for the TCP and MPTCP layers.

    Two explicit transition tables:

    - the {b subflow} table over {!Smapp_tcp.Tcp_info.state} — RFC 793's
      diagram restricted to what this stack implements (no LISTEN state:
      passive TCBs are born in [Syn_received]), plus an [abort]/[kill] edge
      to [Closed] from every live state;
    - the {b connection} table over {!Smapp_mptcp.Connection.phase} — the
      meta-socket lifecycle, which is monotone: [P_init] →
      [P_established] → [P_draining] → [P_finning] → [P_closed], with any
      forward jump allowed (abort) and no backward edge.

    The successor functions are written as exhaustive matches with no
    wildcard, and warning 8 is an error tree-wide: adding a state to either
    variant type breaks the build here until the table says what it may do.

    {!install} hooks the tables into the instrumented mutation points
    ([Tcb.transition_hook], [Connection.phase_hook],
    [Connection.subflow_open_hook]). Every observed transition is appended
    to a bounded per-entity trace; an out-of-table transition — or a
    subflow registered at [P_finning]/[P_closed], the post-FIN subflow-leak
    bug class — raises {!Conformance} carrying the full trace. With the
    hooks not installed (the default) the instrumentation in the data path
    is a single load-and-branch, inside perfbench's untraced runs. *)

open Smapp_tcp
open Smapp_mptcp

exception Conformance of string
(** An observed transition outside the table. The message contains the
    offending edge and the entity's recorded event trace. *)

(** {2 Tables} *)

val tcp_states : Tcp_info.state list
(** Every state, exactly once. *)

val phases : Connection.phase list

val tcp_legal : Tcp_info.state -> Tcp_info.state -> bool
val phase_legal : Connection.phase -> Connection.phase -> bool

val self_check : unit -> (unit, string) result
(** Structural sanity of the tables themselves: state lists are complete
    and duplicate-free, terminal states have no successors, every live
    state can reach its terminal state, and the connection table is
    monotone. Run by [smapp check]. *)

(** {2 Runtime conformance} *)

val install : unit -> unit
(** Enable the instrumentation and install table checkers plus trace
    recording. Idempotent. *)

val uninstall : unit -> unit
(** Restore the no-op hooks and drop recorded traces. *)

val installed : unit -> bool

val transitions_seen : unit -> int
(** Transitions validated since the last {!install}. *)
