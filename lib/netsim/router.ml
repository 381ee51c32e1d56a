type t = { salt : int; mutable routes : Link.t list Ip.Addr_map.t }

let create ?(salt = 0) () = { salt; routes = Ip.Addr_map.empty }

let add_route t dst links =
  if links = [] then invalid_arg "Router.add_route: empty link list";
  t.routes <- Ip.Addr_map.add dst links t.routes

let ecmp_index t flow n =
  if n <= 0 then invalid_arg "Router.ecmp_index";
  Ip.flow_hash ~salt:t.salt flow mod n

(* [find] rather than [find_opt]: no [Some] boxed per forwarded packet *)
let routes_to t dst =
  match Ip.Addr_map.find dst t.routes with links -> links | exception Not_found -> []
[@@smapp.hot]

let rec count_up n = function
  | [] -> n
  | l :: rest -> count_up (if Link.is_up l then n + 1 else n) rest
[@@smapp.hot]

(* The [i]th up link of a list holding more than [i] of them. *)
let rec nth_up i = function
  | [] -> Smapp_sim.Bug.fail "Router: fewer up links than counted"
  | l :: rest ->
      if not (Link.is_up l) then nth_up i rest else if i = 0 then l else nth_up (i - 1) rest
[@@smapp.hot]

(* Destination unreachable: tell the source, unless the undeliverable
   packet is itself an ICMP error (no errors about errors). The packet
   ends here, once the error is built. *)
let rec unreachable t pkt =
  (match pkt.Packet.payload with
  | Packet.Icmp_unreachable _ -> ()
  | _ ->
      let flow = pkt.Packet.flow in
      if count_up 0 (routes_to t flow.Ip.src.Ip.addr) > 0 then
        deliver t
          (Packet.make ~flow:(Ip.reverse flow) ~size:Packet.icmp_size
             (Packet.Icmp_unreachable flow)));
  Packet.free pkt

(* Counts and picks the up links in place: no filtered list per packet,
   and a single up link needs no hash (any hash mod 1 is 0). *)
and deliver t pkt =
  let links = routes_to t pkt.Packet.flow.Ip.dst.Ip.addr in
  match count_up 0 links with
  | 0 -> unreachable t pkt
  | 1 -> Link.send (nth_up 0 links) pkt
  | n -> Link.send (nth_up (ecmp_index t pkt.Packet.flow n) links) pkt
[@@smapp.hot]
