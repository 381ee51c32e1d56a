(** The host's speed, measured on a fixed workload that does not use the
    simulator. The benchmark times it between repetitions and scales each
    repetition's times by it, so that a shared host's drift in speed, up
    to 2x over minutes, cancels out while a change to the simulator does
    not. *)

val seconds : domains:int -> float
(** Wall seconds until [domains] domains have each done one pass of the
    fixed workload, the same work on every call: about 0.14 s on 2 GHz
    Xeon cores with nothing else running. A sharded workload is timed
    against as many domains as it runs lanes, since a lane barrier waits
    for the slowest core. *)
