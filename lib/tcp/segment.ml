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
  mutable sack_count : int;
  mutable payload : mapping option;
  mutable options : tcp_option list;
  mutable s_gen : int;
  s_sack : Seq32.t array;
  s_map : mapping;
  s_some : mapping option;
  s_pkt : Packet.t;
}

let header_bytes = 60
let sack_capacity = 4

let payload_len t = match t.payload with None -> 0 | Some m -> m.len
let wire_size t = header_bytes + payload_len t

type Packet.payload += Tcp of t

let sentinel_flow =
  let a = Ip.endpoint (Ip.v4 0 0 0 0) 0 in
  Ip.flow ~src:a ~dst:a

(* A slot owns, for its whole lifetime: its SACK block array, its mapping
   record, the [Some] cell pointing at it, and the packet that carries it
   on the wire (whose payload points back at the slot, and whose
   [give_back] releases it when the network drops it). [stamp]/[to_packet]
   restamp these in place, so sending a pooled segment allocates nothing.

   Pools are domain-local: a segment is released on the domain whose
   shard consumed or dropped it, which under window-lane parallelism need
   not be the domain that allocated it — ownership transfers with the
   slot. The key is lazy only so that a slot's [give_back] can name it;
   it is forced below, as the module initialises, before any lane runs. *)
let rec pool_key = lazy (Domain.DLS.new_key (fun () -> Arena.create fresh_slot))

and fresh_slot () =
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
      sack_count = 0;
      payload = None;
      options = [];
      s_gen = Arena.Gen.fresh;
      s_sack = Array.make (2 * sack_capacity) Seq32.zero;
      s_map = map;
      s_some = Some map;
      s_pkt =
        { Packet.flow = sentinel_flow; size = header_bytes; payload = Tcp s; give_back };
    }
  and map = { dsn = 0; len = 0 } in
  s

and give_back pkt = match pkt.Packet.payload with Tcp t -> release t | _ -> ()
[@@smapp.hot]

and release t =
  t.s_gen <- Arena.Gen.retire t.s_gen (* raises [Bug] on a double free *);
  t.sack_count <- 0;
  t.payload <- None;
  t.options <- [];
  t.flow <- sentinel_flow;
  Arena.put (Domain.DLS.get (Lazy.force pool_key)) t
[@@smapp.hot]

let pool_key = Lazy.force pool_key
let pool_stats () = Arena.stats (Domain.DLS.get pool_key)

let generation t = t.s_gen
let is_live t = Arena.Gen.is_live t.s_gen

let acquire () =
  let t = Arena.take (Domain.DLS.get pool_key) in
  (* parity odd: a reused slot; fresh slots are born live *)
  if not (Arena.Gen.is_live t.s_gen) then t.s_gen <- Arena.Gen.revive t.s_gen;
  t
[@@smapp.hot]

(* The one constructor. Every argument is required: an optional one would
   box a [Some] at every call site that passes it. [len = 0] means no
   payload. *)
let stamp ~flow ~syn ~ack ~fin ~rst ~seq ~ack_seq ~window ~dsn ~len ~options =
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
  t.sack_count <- 0;
  if len = 0 then t.payload <- None
  else begin
    t.s_map.dsn <- dsn;
    t.s_map.len <- len;
    t.payload <- t.s_some
  end;
  t.options <- options;
  t
[@@smapp.hot]

let add_sack t lo hi =
  let n = t.sack_count in
  if n = sack_capacity then invalid_arg "Segment.add_sack: four blocks already";
  t.s_sack.(2 * n) <- lo;
  t.s_sack.((2 * n) + 1) <- hi;
  t.sack_count <- n + 1
[@@smapp.hot]

let sack_lo t i = t.s_sack.(2 * i)
let sack_hi t i = t.s_sack.((2 * i) + 1)

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
