open Smapp_sim
open Smapp_netsim

(* TCBs by four-tuple, as Linux's established hash; nothing iterates it, so no order leaks *)
module Tcbs = Hashtbl.Make (struct
  type t = Ip.flow

  let equal = Ip.equal_flow

  let hash (f : Ip.flow) =
    let h = (Ip.to_int f.src.addr * 31) + f.src.port in
    let h = ((((h * 31) + Ip.to_int f.dst.addr) * 31) + f.dst.port) * 0x9E3779B1 in
    h lxor (h lsr 29)
end)

type t = {
  host : Host.t;
  engine : Engine.t;
  rng : Rng.t;
  tcbs : Tcb.t Tcbs.t;
      (* keyed by the flow the TCB's segments arrive on: the reverse of its
         own, computed once when it is added *)
  listeners : (int, Segment.t -> unit) Hashtbl.t; (* port -> handler *)
  tx : Segment.t -> unit; (* every TCB's transmit *)
  forget : Tcb.t -> unit; (* every TCB's close hook: drops it from [tcbs] *)
}

let host t = t.host
let engine t = t.engine

let m_segments =
  Smapp_obs.Metrics.counter ~help:"TCP segments received by stacks" "tcp_segments_received_total"

let m_rst =
  Smapp_obs.Metrics.counter ~help:"RFC 793 resets generated for segments without a TCB"
    "tcp_rst_sent_total"

let send_rst_for t seg =
  (* RFC 793 reset generation for a segment that has no TCB *)
  if not seg.Segment.rst then begin
    Smapp_obs.Metrics.incr m_rst;
    Smapp_obs.Trace.instant ~cat:"tcp" "rst";
    (* an ACK is answered from its ack number; anything else acknowledges
       what the segment occupied, from sequence zero *)
    let ack = not seg.Segment.ack in
    t.tx
      (Segment.stamp ~flow:(Ip.reverse seg.Segment.flow) ~syn:false ~ack ~fin:false ~rst:true
         ~seq:(if ack then Seq32.zero else seg.Segment.ack_seq)
         ~ack_seq:(if ack then Seq32.add seg.Segment.seq (Segment.seq_span seg) else Seq32.zero)
         ~window:(1 lsl 20) ~dsn:0 ~len:0 ~options:[])
  end

let find t flow = Tcbs.find_opt t.tcbs (Ip.reverse flow)

let accept t syn ~config ~synack_options cbs =
  let tcb =
    Tcb.create_passive t.engine ~tx:t.tx ~forget:t.forget ~syn ~config ~synack_options cbs
  in
  Tcbs.replace t.tcbs syn.Segment.flow tcb;
  tcb

(* A SYN the listener opened no TCB for is refused: the table says which. *)
let handle_syn t seg =
  match Hashtbl.find t.listeners seg.Segment.flow.Ip.dst.Ip.port with
  | handler ->
      handler seg;
      if not (Tcbs.mem t.tcbs seg.Segment.flow) then send_rst_for t seg
  | exception Not_found -> send_rst_for t seg

let handle_tcp t seg =
  (* [find] over [find_opt]: the latter boxes a [Some] per delivered
     segment, and this lookup runs once per arriving segment *)
  match Tcbs.find t.tcbs seg.Segment.flow with
  | tcb -> Tcb.handle_segment tcb seg
  | exception Not_found ->
      if seg.Segment.syn && not seg.Segment.ack then handle_syn t seg
      else send_rst_for t seg
[@@smapp.hot]

(* [orig_flow] is the flow of a packet this host sent. *)
let handle_icmp t orig_flow =
  match find t orig_flow with
  | Some tcb -> Tcb.kill tcb Tcp_error.Enetunreach
  | None -> ()

let receive t pkt =
  match pkt.Packet.payload with
  | Segment.Tcp seg ->
      Smapp_obs.Metrics.incr m_segments;
      handle_tcp t seg;
      (* the stack is the segment's final consumer: everything above
         (TCB, MPTCP option handlers, listeners) runs
         synchronously inside [handle_tcp] and must not retain it *)
      Segment.release seg
  | Packet.Icmp_unreachable orig_flow -> handle_icmp t orig_flow
  | _ -> ()
[@@smapp.hot]

let attach host =
  let engine = Host.engine host in
  let tcbs = Tcbs.create 1 in
  let t =
    {
      host;
      engine;
      rng = Engine.split_rng engine;
      tcbs;
      listeners = Hashtbl.create 16;
      tx = (fun seg -> Host.send host (Segment.to_packet seg));
      forget = (fun tcb -> Tcbs.remove tcbs (Ip.reverse (Tcb.flow tcb)));
    }
  in
  Host.set_receive host (receive t);
  t

let listen t ~port handler = Hashtbl.replace t.listeners port handler

(* The table key of an active open from an unused ephemeral port: the
   flow its segments arrive on, built once per draw. *)
let rec free_key t ~src ~dst attempts =
  (* surfaced to the caller as a [Failure]-carried [Error] by
     [Connection.add_subflow]; a resource condition, not a broken
     invariant, so [Bug] would be wrong here *)
  if attempts > 1000 then failwith "Stack.connect: no free ephemeral port";
  let key = Ip.flow ~src:dst ~dst:(Ip.endpoint src (32768 + Rng.int t.rng 28232)) in
  if Tcbs.mem t.tcbs key then free_key t ~src ~dst (attempts + 1) else key

let connect t ~src ~dst ?src_port ~config ~backup ~syn_options cbs =
  let key =
    match src_port with
    | None -> free_key t ~src ~dst 0
    | Some port ->
        let key = Ip.flow ~src:dst ~dst:(Ip.endpoint src port) in
        if Tcbs.mem t.tcbs key then
          invalid_arg
            (Format.asprintf "Stack.connect: %a already in use" Ip.pp_flow (Ip.reverse key));
        key
  in
  let tcb =
    Tcb.create_active t.engine ~tx:t.tx ~forget:t.forget ~flow:(Ip.reverse key) ~config ~backup
      ~syn_options cbs
  in
  Tcbs.replace t.tcbs key tcb;
  tcb
