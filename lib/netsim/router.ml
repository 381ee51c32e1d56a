type t = { salt : int; mutable routes : Link.t list Ip.Addr_map.t }

let create ?(salt = 0) () = { salt; routes = Ip.Addr_map.empty }

let add_route t dst links =
  if links = [] then invalid_arg "Router.add_route: empty link list";
  t.routes <- Ip.Addr_map.add dst links t.routes

let ecmp_index t flow n =
  if n <= 0 then invalid_arg "Router.ecmp_index";
  Ip.flow_hash ~salt:t.salt flow mod n

let links_for t dst =
  match Ip.Addr_map.find_opt dst t.routes with
  | Some links -> List.filter Link.is_up links
  | None -> []

let rec deliver t pkt =
  let flow = pkt.Packet.flow in
  match links_for t flow.Ip.dst.Ip.addr with
  | [] ->
      (* destination unreachable: tell the source, unless the undeliverable
         packet is itself an ICMP error (no errors about errors) *)
      (match pkt.Packet.payload with
      | Packet.Icmp_unreachable _ -> ()
      | _ ->
          if links_for t flow.Ip.src.Ip.addr <> [] then
            deliver t
              (Packet.make ~flow:(Ip.reverse flow) ~size:Packet.icmp_size
                 (Packet.Icmp_unreachable flow)))
  | links_up ->
      let idx = ecmp_index t pkt.Packet.flow (List.length links_up) in
      Link.send (List.nth links_up idx) pkt
