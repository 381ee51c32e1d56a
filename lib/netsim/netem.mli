(** Scheduled network impairments — the [tc netem] knob-turning the paper's
    Mininet scripts perform mid-experiment (e.g. "after 1 second, the loss
    ratio over the primary path increases to 30%"). *)

open Smapp_sim

val loss_at : Engine.t -> Time.t -> Topology.duplex -> float -> unit
(** Set both directions' loss probability at an absolute time. *)

val down_at : Engine.t -> Time.t -> Topology.duplex -> unit

val flap_nic : Engine.t -> Host.nic -> down_at:Time.t -> up_at:Time.t -> unit
(** Interface loss-of-connectivity followed by recovery. *)

val flap_nic_every :
  Engine.t ->
  Host.nic ->
  first_down:Time.t ->
  down_for:Time.span ->
  period:Time.span ->
  ?count:int ->
  unit ->
  unit
(** Repeating flap: starting at [first_down], take the NIC down for
    [down_for], then bring it back, and repeat every [period]. [count]
    bounds the number of cycles; omitted, the flapping only stops at the
    run horizon. Cycles are scheduled lazily, so an unbounded flap does not
    flood the event queue. *)
