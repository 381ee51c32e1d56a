open Smapp_sim

type nic = {
  nic_name : string;
  addr : Ip.t;
  mutable up : bool;
  mutable tx : Link.t option;
  owner : t;
}

and t = {
  engine : Engine.t;
  mutable nic_list : nic list;
  mutable receive : (Packet.t -> unit) option;
  mutable addr_listeners : (nic -> [ `Up | `Down ] -> unit) list;
  mutable taps : (Packet.t -> unit) list;
}

let create engine =
  {
    engine;
    nic_list = [];
    receive = None;
    addr_listeners = [];
    taps = [];
  }

let engine t = t.engine

let add_nic t ~name ~addr =
  if List.exists (fun n -> Ip.equal n.addr addr) t.nic_list then
    invalid_arg (Printf.sprintf "Host.add_nic: duplicate address %s" (Ip.to_string addr));
  let nic = { nic_name = name; addr; up = true; tx = None; owner = t } in
  t.nic_list <- t.nic_list @ [ nic ];
  nic

let attach nic link = nic.tx <- Some link
let nic_name nic = nic.nic_name
let nic_addr nic = nic.addr
let nic_up nic = nic.up

let set_nic_up nic up =
  if nic.up <> up then begin
    nic.up <- up;
    let dir = if up then `Up else `Down in
    List.iter (fun f -> f nic dir) nic.owner.addr_listeners
  end

let nics t = t.nic_list
let find_nic t addr = List.find_opt (fun n -> Ip.equal n.addr addr) t.nic_list
let addresses t = List.filter_map (fun n -> if n.up then Some n.addr else None) t.nic_list

let set_receive t f = t.receive <- Some f

(* The datapath walks [nic_list] inline instead of going through
   [find_nic]: [List.find_opt] boxes a [Some] per packet, twice per
   delivery (once on send, once on receive). A packet that ends here
   goes back to its pool. *)
let rec deliver_on t nics addr pkt =
  match nics with
  | [] -> Packet.free pkt
  | n :: rest ->
      if Ip.equal n.addr addr then begin
        match t.receive with Some receive when n.up -> receive pkt | _ -> Packet.free pkt
      end
      else deliver_on t rest addr pkt

let deliver t pkt = deliver_on t t.nic_list pkt.Packet.flow.Ip.dst.Ip.addr pkt
[@@smapp.hot]

let rec send_via nics addr pkt =
  match nics with
  | [] -> Packet.free pkt
  | n :: rest ->
      if Ip.equal n.addr addr then begin
        match n.tx with Some link when n.up -> Link.send link pkt | _ -> Packet.free pkt
      end
      else send_via rest addr pkt

let rec run_taps taps pkt =
  match taps with
  | [] -> ()
  | tap :: rest ->
      tap pkt;
      run_taps rest pkt

let send t pkt =
  run_taps t.taps pkt;
  send_via t.nic_list pkt.Packet.flow.Ip.src.Ip.addr pkt
[@@smapp.hot]

let on_addr_change t f = t.addr_listeners <- t.addr_listeners @ [ f ]
let add_tap t f = t.taps <- t.taps @ [ f ]
