open Smapp_sim
open Smapp_netsim

type accept = {
  acc_config : Tcb.config option;
  acc_synack_options : Segment.tcp_option list;
  acc_callbacks : Tcb.callbacks;
  acc_on_created : Tcb.t -> unit;
}

type t = {
  host : Host.t;
  engine : Engine.t;
  rng : Rng.t;
  mutable tcbs : Tcb.t Ip.Flow_map.t;
  listeners : (int, Segment.t -> accept option) Hashtbl.t; (* port -> handler *)
  default_config : Tcb.config;
}

let host t = t.host
let engine t = t.engine
let default_config t = t.default_config

let m_segments =
  Smapp_obs.Metrics.counter ~help:"TCP segments received by stacks" "tcp_segments_received_total"

let m_rst =
  Smapp_obs.Metrics.counter ~help:"RFC 793 resets generated for segments without a TCB"
    "tcp_rst_sent_total"

let tx t seg = Host.send t.host (Segment.to_packet seg)

let send_rst_for t seg =
  (* RFC 793 reset generation for a segment that has no TCB *)
  if not seg.Segment.rst then begin
    Smapp_obs.Metrics.incr m_rst;
    Smapp_obs.Trace.instant ~cat:"tcp" "rst";
    let flow = Ip.reverse seg.Segment.flow in
    let rst =
      if seg.Segment.ack then
        Segment.make ~flow ~rst:true ~seq:seg.Segment.ack_seq ()
      else
        Segment.make ~flow ~rst:true ~ack:true ~seq:Seq32.zero
          ~ack_seq:(Seq32.add seg.Segment.seq (Segment.seq_span seg))
          ()
    in
    tx t rst
  end

(* Wrap user callbacks so the table forgets the TCB once it is closed. *)
let gc_callbacks t flow (cbs : Tcb.callbacks) =
  {
    cbs with
    Tcb.on_close =
      (fun tcb err ->
        t.tcbs <- Ip.Flow_map.remove flow t.tcbs;
        cbs.Tcb.on_close tcb err);
  }

let find t flow = Ip.Flow_map.find_opt flow t.tcbs

let handle_syn t seg =
  let port = seg.Segment.flow.Ip.dst.Ip.port in
  match Hashtbl.find_opt t.listeners port with
  | None -> send_rst_for t seg
  | Some handler -> (
      match handler seg with
      | None -> send_rst_for t seg
      | Some accept ->
          let local_flow = Ip.reverse seg.Segment.flow in
          let config = Option.value accept.acc_config ~default:t.default_config in
          let cbs = gc_callbacks t local_flow accept.acc_callbacks in
          let tcb =
            Tcb.create_passive t.engine ~tx:(tx t) ~syn:seg ~config
              ~synack_options:accept.acc_synack_options cbs
          in
          t.tcbs <- Ip.Flow_map.add local_flow tcb t.tcbs;
          accept.acc_on_created tcb)

let handle_tcp t seg =
  let local_flow = Ip.reverse seg.Segment.flow in
  (* [find] over [find_opt]: the latter boxes a [Some] per delivered
     segment, and this lookup runs once per arriving segment *)
  match Ip.Flow_map.find local_flow t.tcbs with
  | tcb -> Tcb.handle_segment tcb seg
  | exception Not_found ->
      if seg.Segment.syn && not seg.Segment.ack then handle_syn t seg
      else send_rst_for t seg

let handle_icmp t orig_flow =
  match Ip.Flow_map.find_opt orig_flow t.tcbs with
  | Some tcb -> Tcb.kill tcb Tcp_error.Enetunreach
  | None -> ()

let receive t pkt =
  match pkt.Packet.payload with
  | Segment.Tcp seg ->
      Smapp_obs.Metrics.incr m_segments;
      handle_tcp t seg;
      (* the stack is the segment's final consumer: everything above
         (TCB, MPTCP option handlers, accept callbacks) runs
         synchronously inside [handle_tcp] and must not retain it *)
      Segment.release seg
  | Packet.Icmp_unreachable orig_flow -> handle_icmp t orig_flow
  | _ -> ()

let attach host =
  let engine = Host.engine host in
  let t =
    {
      host;
      engine;
      rng = Engine.split_rng engine;
      tcbs = Ip.Flow_map.empty;
      listeners = Hashtbl.create 16;
      default_config = Tcb.default_config;
    }
  in
  Host.set_receive host (receive t);
  t

let listen t ~port handler = Hashtbl.replace t.listeners port handler
let unlisten t ~port = Hashtbl.remove t.listeners port

let ephemeral_port t ~src ~dst =
  let rec draw attempts =
    (* surfaced to the caller as a [Failure]-carried [Error] by
       [Connection.add_subflow]; a resource condition, not a broken
       invariant, so [Bug] would be wrong here *)
    if attempts > 1000 then failwith "Stack.connect: no free ephemeral port";
    let port = 32768 + Rng.int t.rng 28232 in
    let flow = Ip.flow ~src:(Ip.endpoint src port) ~dst in
    if Ip.Flow_map.mem flow t.tcbs then draw (attempts + 1) else port
  in
  draw 0

let connect t ~src ~dst ?src_port ?config ?(backup = false) ?(syn_options = []) cbs =
  let port = match src_port with Some p -> p | None -> ephemeral_port t ~src ~dst in
  let flow = Ip.flow ~src:(Ip.endpoint src port) ~dst in
  if Ip.Flow_map.mem flow t.tcbs then
    invalid_arg (Format.asprintf "Stack.connect: %a already in use" Ip.pp_flow flow);
  let config = Option.value config ~default:t.default_config in
  let cbs = gc_callbacks t flow cbs in
  let tcb =
    Tcb.create_active t.engine ~tx:(tx t) ~flow ~config ~backup ~syn_options cbs
  in
  t.tcbs <- Ip.Flow_map.add flow tcb t.tcbs;
  tcb
