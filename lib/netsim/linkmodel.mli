(** Time-varying link models: the data-plane counterpart of {!Netem}.

    Where [Netem] schedules one-shot impairments ("at t=1s, loss becomes
    30%"), [Linkmodel] runs *processes* on engine timers that continuously
    modulate an existing {!Link.t}'s rate, delay and loss — piecewise-
    constant traces, WiFi/LTE-flavoured random-walk presets, and
    Gilbert–Elliott burst loss — plus a {!Mobility} roaming primitive that
    turns a NIC schedule into the handover churn (address loss followed by
    [new_local_addr]) the SMAPP controllers must survive.

    Everything is driven by {!Engine.split_rng}, so a seeded run reproduces
    the exact same link history; models are inert after {!stop} and stop by
    themselves when the engine's horizon is reached. *)

open Smapp_sim

type handle
(** A running link-model process. *)

val stop : handle -> unit
(** Freeze the process: pending steps become no-ops and no further steps
    are scheduled. Link parameters keep their last applied values. *)

(** {1 Piecewise-constant traces} *)

type segment = {
  hold : Time.span;  (** how long this segment's parameters stay applied *)
  seg_rate_bps : float option;
  seg_loss : float option;
}
(** One step of a trace; [None] fields leave the current value alone. *)

val segment : ?rate_bps:float -> ?loss:float -> hold:Time.span -> unit -> segment

val play :
  Engine.t -> ?start:Time.span -> ?repeat:bool -> Topology.duplex -> segment list -> handle
(** Apply each segment to both directions of [cable] in order, holding each
    for its [hold] span. [start] delays the first segment (default: now).
    With [repeat] (default false) the trace loops forever — bounded only by
    the run horizon. *)

(** {1 Wireless presets}

    Deterministic random-walk processes re-drawing link parameters at a
    fixed period, loosely shaped on 802.11n MCS ladders and a
    bursty cellular radio. They are calibrated for scenario realism, not
    protocol emulation. *)

val wifi : Engine.t -> Topology.duplex -> handle
(** Every 100 ms: rate walks an MCS-like ladder (6.5–65 Mbit/s), base delay ~2 ms, light
    residual loss, with occasional deep fades (floor rate, 5% loss). *)

val lte : Engine.t -> Topology.duplex -> handle
(** Every 200 ms: rate walks 2–40 Mbit/s with slower variation, delay walks 30–80 ms,
    negligible residual loss. *)

(** {1 Gilbert–Elliott burst loss} *)

type gilbert_elliott = {
  p_good_to_bad : float;  (** per-step transition probability *)
  ge_step : Time.span;    (** chain step interval *)
}
(** The chain leaves Bad with probability 30% per step, and loses 0.1% of
    packets in Good and 40% in Bad. *)

val default_ge : gilbert_elliott
(** 100 ms steps, 5% G→B. *)

val burst_loss : Engine.t -> Topology.duplex list -> gilbert_elliott -> handle
(** Run one two-state Markov chain, starting Good, and apply its per-state loss to every
    cable in the list (both directions). Passing several cables yields
    fully correlated fading — the "both radios in the same tunnel" case. *)

(** {1 Mobility: scheduled handover} *)

module Mobility : sig
  (** Roams a multihomed host across its NICs: at each handover the active
      NIC goes down (the address is lost, [Del_local_addr] fires) and after
      a break-before-make gap the next NIC (cyclically) comes up
      ([New_local_addr] fires) — {!Netem.flap_nic} generalised to a
      schedule crossing interfaces. *)

  type schedule = {
    first_handover : Time.span;  (** time of the first handover *)
    ho_period : Time.span;       (** gap between successive handovers *)
    break_for : Time.span;       (** old-NIC-down to new-NIC-up gap *)
    max_handovers : int option;  (** [None]: roam until the run ends *)
  }

  type t

  val start : Engine.t -> nics:Host.nic list -> schedule -> t
  (** [nics] must hold at least two interfaces; the head is the initially
      active one (the rest are taken down immediately so the schedule's
      state is explicit). Handovers are counted in {!handovers} and in the
      [netsim_handovers_total] metric, and emit a [netsim] trace instant. *)

  val handovers : t -> int
end
