(** Fig 2a — smarter backup (§4.2).

    A bulk transfer starts on the primary path; the backup path is *not*
    established (break-before-make). After 1 s the primary's loss ratio
    jumps to 30%. The subflow controller watches [timeout] events and, when
    the reported RTO exceeds 1 s, closes the primary and opens a subflow
    over the backup interface. The figure plots data sequence numbers
    against time, coloured by subflow. *)

type series = { label : string; points : (float * float) list }
(** (seconds, relative sequence number in units of 10^5 bytes). *)

type result = {
  master : series;  (** data sent on the primary subflow *)
  backup : series;  (** data sent on the failover subflow *)
  failover_at : float option;  (** when the controller switched, seconds *)
  bytes_delivered : int;
  duration : float;
}

val run : ?seed:int -> ?rto_threshold:float -> ?duration:float -> unit -> result
(** Loss is 30% from t = 1 s. Defaults: threshold 1 s, 4 s horizon. *)
