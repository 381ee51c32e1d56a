open Smapp_netsim
module Arena = Smapp_sim.Arena

type tcp_option = ..

type mapping = { mutable dsn : int; mutable len : int }

type t = {
  mutable flow : Ip.flow;
  mutable syn : bool;
  mutable ack : bool;
  mutable fin : bool;
  mutable rst : bool;
  mutable seq : Seq32.t;
  mutable ack_seq : Seq32.t;
  mutable window : int;
  mutable sack : (Seq32.t * Seq32.t) list;
  mutable payload : mapping option;
  mutable options : tcp_option list;
  mutable s_gen : int;
  s_map : mapping;
  s_some : mapping option;
  s_pkt : Packet.t;
}

let header_bytes = 60

let payload_len t = match t.payload with None -> 0 | Some m -> m.len
let wire_size t = header_bytes + payload_len t

type Packet.payload += Tcp of t

let sentinel_flow =
  let a = Ip.endpoint (Ip.v4 0 0 0 0) 0 in
  Ip.flow ~src:a ~dst:a

(* A slot owns, for its whole lifetime: its mapping record, the [Some]
   cell pointing at it, and the packet that carries it on the wire
   (whose payload points back at the slot). [make]/[to_packet] restamp
   these in place, so sending a pooled segment allocates nothing. *)
let fresh_slot () =
  let rec s =
    {
      flow = sentinel_flow;
      syn = false;
      ack = false;
      fin = false;
      rst = false;
      seq = Seq32.zero;
      ack_seq = Seq32.zero;
      window = 0;
      sack = [];
      payload = None;
      options = [];
      s_gen = Arena.Gen.fresh;
      s_map = map;
      s_some = Some map;
      s_pkt = { Packet.flow = sentinel_flow; size = header_bytes; payload = Tcp s };
    }
  and map = { dsn = 0; len = 0 }
  in
  s

(* Pools are domain-local: a segment is released on the domain whose
   shard consumed it, which under window-lane parallelism need not be
   the domain that allocated it — ownership transfers with the slot. *)
let pool_key : t Arena.t Domain.DLS.key = Domain.DLS.new_key (fun () -> Arena.create fresh_slot)

let pool_stats () = Arena.stats (Domain.DLS.get pool_key)

let generation t = t.s_gen
let is_live t = Arena.Gen.is_live t.s_gen

let release t =
  t.s_gen <- Arena.Gen.retire t.s_gen (* raises [Bug] on a double free *);
  t.sack <- [];
  t.payload <- None;
  t.options <- [];
  t.flow <- sentinel_flow;
  Arena.put (Domain.DLS.get pool_key) t
[@@smapp.hot]

let acquire () =
  let t = Arena.take (Domain.DLS.get pool_key) in
  (* parity odd: a reused slot; fresh slots are born live *)
  if not (Arena.Gen.is_live t.s_gen) then t.s_gen <- Arena.Gen.revive t.s_gen;
  t
[@@smapp.hot]

(* All-required constructor: optional arguments box a [Some] per provided
   argument at every call site, which adds up on the per-delivery budget —
   the TCB's steady-state senders use this instead of [make]. [len = 0]
   means no payload. *)
let stamp ~flow ~syn ~ack ~fin ~rst ~seq ~ack_seq ~window ~sack ~dsn ~len ~options =
  if len < 0 then invalid_arg "Segment.stamp: negative payload length";
  let t = acquire () in
  t.flow <- flow;
  t.syn <- syn;
  t.ack <- ack;
  t.fin <- fin;
  t.rst <- rst;
  t.seq <- seq;
  t.ack_seq <- ack_seq;
  t.window <- window;
  t.sack <- sack;
  if len = 0 then t.payload <- None
  else begin
    t.s_map.dsn <- dsn;
    t.s_map.len <- len;
    t.payload <- t.s_some
  end;
  t.options <- options;
  t
[@@smapp.hot]

let make ~flow ?(syn = false) ?(ack = false) ?(rst = false) ~seq
    ?(ack_seq = Seq32.zero) ?(window = 1 lsl 20) ?(sack = []) ?payload ?(options = []) () =
  let dsn, len =
    match payload with
    | Some { len; _ } when len <= 0 -> invalid_arg "Segment.make: empty payload"
    | Some m -> (m.dsn, m.len)
    | None -> (0, 0)
  in
  stamp ~flow ~syn ~ack ~fin:false ~rst ~seq ~ack_seq ~window ~sack ~dsn ~len ~options

let seq_span t =
  payload_len t + (if t.syn then 1 else 0) + if t.fin then 1 else 0

let to_packet t =
  let pkt = t.s_pkt in
  pkt.Packet.flow <- t.flow;
  pkt.Packet.size <- wire_size t;
  pkt
[@@smapp.hot]

let of_packet pkt =
  match pkt.Packet.payload with Tcp t -> Some t | _ -> None
