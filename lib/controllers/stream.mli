(** The §4.3 smart-streaming controller.

    The application delivers one 64 KB block per second and wants each
    block to arrive within that second. Halfway through each block (500 ms)
    the controller polls the kernel for the connection's acknowledged-byte
    count (the paper extracts [snd_una] with a command); if less than half
    the block (32 KB) got through, the current path is underperforming and
    a subflow is opened on the spare interface. Independently, any subflow
    whose reported RTO exceeds the block period is closed at once — waiting
    out a backed-off retransmission timer would blow the deadline. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


open Smapp_sim
open Smapp_netsim

type config = {
  rto_limit : Time.span;  (** close a subflow whose RTO exceeds this, 1 s *)
  spare_source : Ip.t;  (** the other interface *)
  spare_destination : Ip.endpoint option;
  max_spare_opens : int;
      (** per-connection cap on spare establishments (default 4): the spare
          may be re-opened after it dies with an error (handover churn),
          but never unboundedly *)
}

val default_config :
  spare_source:Ip.t -> ?spare_destination:Ip.endpoint -> unit -> config

type t

val start : Pm_lib.t -> config -> t

val second_subflows_opened : t -> int
val subflows_closed : t -> int
val checks_performed : t -> int
