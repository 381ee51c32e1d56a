(** A simulated Netlink socket between the kernel and one userspace process.

    Messages are byte strings ({!Wire}); each direction imposes a
    configurable latency modelling the system-call / socket-wakeup /
    scheduling cost of crossing the kernel boundary. This latency is the
    quantity Fig 3 of the paper measures: the userspace path manager pays
    two crossings (event up, command down) that the in-kernel one does not.

    The default per-crossing latency (14 µs) is calibrated so the userspace
    manager's extra delay lands near the paper's measured 23 µs; a
    multiplier emulates the paper's CPU-stress experiment (≤ 37 µs).

    The channel is FIFO per direction (like a real netlink socket) but not
    reliable: a {!fault_profile} injects the failures a real deployment
    sees — ENOBUFS overflow of a bounded socket buffer, probabilistic
    message drop and duplication, extra delay jitter, and whole-daemon
    crash/restart windows. All randomness is drawn from streams split off
    the simulation seed, so a fault schedule is perfectly reproducible. *)

open Smapp_sim

type t

type direction = To_user | To_kernel

type fault_profile = {
  drop : float;  (** per-message drop probability, each direction *)
  duplicate : float;  (** per-message duplication probability *)
  extra_jitter : Time.span;  (** uniform extra delay in [0, extra_jitter) per crossing *)
  crash_rate : float;  (** daemon crashes per second of sim time (Poisson); 0 = never *)
  crash_duration : Time.span;  (** how long the daemon stays down per crash *)
  buffer : int;  (** per-direction in-flight message cap; overflow = ENOBUFS drop *)
}

val reliable : fault_profile
(** No faults, unbounded buffers — the pre-fault-injection behaviour and
    the default of {!create}. *)

type stats = {
  s_dropped : int;  (** messages lost to the drop probability, forced drops, or crash windows *)
  s_duplicated : int;
  s_overflowed : int;  (** ENOBUFS: messages lost to the bounded buffer *)
  s_crashes : int;  (** daemon crash windows entered *)
}

val create : Engine.t -> ?latency:Time.span -> unit -> t

val set_stress_factor : t -> float -> unit
(** Multiply the crossing latency (CPU contention emulation); 1.0 default. *)

val set_fault_profile : t -> fault_profile -> unit
(** Install a fault profile (replacing the previous one and its pending
    crash schedule). Crash windows start being drawn immediately. *)

val set_user_up : t -> bool -> unit
(** Explicitly crash ([false]) or restart ([true]) the userspace daemon.
    While down, messages in both directions are dropped. The restart
    callback fires on the [false] -> [true] transition. *)

val on_user_restart : t -> (unit -> unit) -> unit
(** Called when the daemon comes back up after a crash window (explicit or
    profile-driven); the PM library uses this to resubscribe and resync. *)

val inject_drop : t -> direction -> int -> unit
(** [inject_drop t dir n] deterministically drops the next [n] messages
    sent in [dir] — for tests that need a precise loss. *)

val on_kernel_receive : t -> (string -> unit) -> unit
(** Handler for bytes arriving in the kernel (commands). *)

val on_user_receive : t -> (string -> unit) -> unit
(** Handler for bytes arriving in userspace (events, replies). *)

val kernel_send : t -> string -> unit
(** Kernel -> userspace, delivered after the crossing latency. *)

val user_send : t -> string -> unit
(** Userspace -> kernel. *)

val kernel_to_user_messages : t -> int
val user_to_kernel_messages : t -> int

val stats : t -> stats
