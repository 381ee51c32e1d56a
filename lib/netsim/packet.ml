type payload = ..
type payload += Raw of string

type t = { mutable flow : Ip.flow; mutable size : int; mutable payload : payload }

let make ~flow ~size payload =
  if size <= 0 then invalid_arg "Packet.make: size must be positive";
  { flow; size; payload }

type payload += Icmp_unreachable of Ip.flow

let icmp_size = 56
