(** Error codes reported when a connection or subflow dies.

    The paper's [sub_closed] event carries "an error code (based on standard
    errno) that indicates the reason for the removal (e.g., excessive
    expirations of the rto, destination unreachable, etc.)". *)

type t =
  | Etimedout  (** excessive RTO expirations *)
  | Econnreset  (** RST received *)
  | Econnrefused  (** RST in answer to our SYN *)
  | Enetunreach  (** ICMP network unreachable *)
  | Ehostunreach

val to_string : t -> string
