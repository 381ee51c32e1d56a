(** The §4.5 userspace ndiffports controller: as soon as a connection is
    established, open [n - 1] additional subflows over the same address pair
    with random source ports. The Fig 3 experiment measures how much later
    its MP_JOIN SYN leaves compared with the in-kernel ndiffports. *)

module Pm_lib = Smapp_core.Pm_lib
module Pm_msg = Smapp_core.Pm_msg


type t

val start : Pm_lib.t -> n:int -> t
