(* Property tests for the hot-path freelist (Smapp_sim.Arena) and the
   pooled-segment client built on it: the aliasing discipline (the pool
   never hands one slot to two owners), slot clearing on release, the
   generation-parity use-after-free tripwire, and the counter
   reconciliation identity [takes + adopted = live + puts]. Then the
   allocation pins: the event spine, the shard windows and the datapath
   below TCP allocate nothing per operation in steady state, losses
   included (a dropped segment goes back to its pool, an RTO's
   reinjection builds no list, a cross-shard delivery rides a pooled
   slot), and the handshake's SHA-1 allocates its scratch and result
   only, never per block; on the control plane, a connection's open, a
   join and the view's events are pinned at the words they build. Last,
   lifetimes: after a drained run with every kind of loss, every segment
   taken from the pool is back, and a finished sharded run is not kept
   alive by a parked trunk slot. *)

open Smapp_sim
module Segment = Smapp_tcp.Segment
module Seq32 = Smapp_tcp.Seq32
module Ip = Smapp_netsim.Ip
module Link = Smapp_netsim.Link
module Packet = Smapp_netsim.Packet
module Router = Smapp_netsim.Router
module Sha1 = Smapp_mptcp.Sha1
module Crypto = Smapp_mptcp.Crypto

let checkb = Alcotest.check Alcotest.bool
let checki = Alcotest.check Alcotest.int

(* === aliasing: no two live owners ============================================ *)

(* Slots are mutable records so physical identity is meaningful. *)
type slot = { mutable tag : int }

(* An op sequence over one pool: [true] takes, [false] puts back the
   most recently taken live slot (LIFO, like the datapath's
   acquire/release nesting). Skewed towards takes so the pool both
   grows and recycles. *)
let gen_ops = QCheck.Gen.(list_size (int_range 20 400) (int_range 0 9))

let arb_ops =
  QCheck.make gen_ops ~print:(fun ops ->
      String.concat ""
        (List.map (fun op -> if op < 6 then "T" else "P") ops))

let prop_no_live_aliases =
  QCheck.Test.make ~count:100 ~name:"take never returns a slot that is already live"
    arb_ops (fun ops ->
      let pool = Arena.create (fun () -> { tag = 0 }) in
      let live = ref [] in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 6 then begin
            let s = Arena.take pool in
            (* the freshly taken slot must not alias any live one *)
            if List.memq s !live then ok := false;
            live := s :: !live
          end
          else
            match !live with
            | [] -> ()
            | s :: rest ->
                Arena.put pool s;
                live := rest)
        ops;
      !ok)

let prop_no_tag_clobber =
  (* Same walk, but each owner stamps its slot with a unique tag and
     re-checks it at put time: a second owner of the same slot would
     have overwritten it. Catches aliasing that [memq] alone would only
     see at take instants. *)
  QCheck.Test.make ~count:100 ~name:"a live slot's contents survive other takes/puts"
    arb_ops (fun ops ->
      let pool = Arena.create (fun () -> { tag = 0 }) in
      let live = ref [] in
      let next = ref 1 in
      let ok = ref true in
      List.iter
        (fun op ->
          if op < 6 then begin
            let s = Arena.take pool in
            s.tag <- !next;
            live := (s, !next) :: !live;
            incr next
          end
          else
            match !live with
            | [] -> ()
            | (s, expect) :: rest ->
                if s.tag <> expect then ok := false;
                Arena.put pool s;
                live := rest)
        ops;
      !ok)

(* === counter reconciliation ================================================== *)

let prop_stats_reconcile =
  QCheck.Test.make ~count:100
    ~name:"stats reconcile: takes + adopted = live + puts" arb_ops (fun ops ->
      let pool = Arena.create (fun () -> { tag = 0 }) in
      let live = ref [] in
      let model_live = ref 0 and model_high = ref 0 in
      List.iter
        (fun op ->
          if op < 6 then begin
            live := Arena.take pool :: !live;
            incr model_live;
            if !model_live > !model_high then model_high := !model_live
          end
          else
            match !live with
            | [] -> ()
            | s :: rest ->
                Arena.put pool s;
                live := rest;
                decr model_live)
        ops;
      let st = Arena.stats pool in
      st.Arena.takes + st.Arena.adopted = st.Arena.live + st.Arena.puts
      && st.Arena.live = !model_live
      && st.Arena.high_water = !model_high
      && st.Arena.adopted = 0
      (* every take either reused a parked slot or allocated fresh *)
      && st.Arena.free = st.Arena.puts - (st.Arena.takes - st.Arena.fresh)
      && st.Arena.fresh <= st.Arena.takes)

let test_adoption_counted () =
  (* Ownership migration across pools (the cross-domain hand-off in the
     sharded datapath): a slot taken from [a] and parked on [b] is an
     adoption on [b], and both pools still reconcile. *)
  let a = Arena.create (fun () -> { tag = 0 }) in
  let b = Arena.create (fun () -> { tag = 0 }) in
  let s = Arena.take a in
  Arena.put b s;
  let sa = Arena.stats a and sb = Arena.stats b in
  checki "b adopted the slot" 1 sb.Arena.adopted;
  checki "b holds it free" 1 sb.Arena.free;
  checkb "a reconciles" true
    (sa.Arena.takes + sa.Arena.adopted = sa.Arena.live + sa.Arena.puts);
  checkb "b reconciles" true
    (sb.Arena.takes + sb.Arena.adopted = sb.Arena.live + sb.Arena.puts);
  (* the adopted slot is now b's to hand out *)
  let s' = Arena.take b in
  checkb "adopted slot is reused by b" true (s == s')

(* === the generation-parity tripwire ========================================== *)

let test_gen_protocol () =
  checkb "fresh is live" true (Arena.Gen.is_live Arena.Gen.fresh);
  let g1 = Arena.Gen.retire Arena.Gen.fresh in
  checkb "retired is not live" false (Arena.Gen.is_live g1);
  let g2 = Arena.Gen.revive g1 in
  checkb "revived is live" true (Arena.Gen.is_live g2);
  checkb "generations strictly increase" true
    (Arena.Gen.fresh < g1 && g1 < g2);
  (match Arena.Gen.retire g1 with
  | _ -> Alcotest.fail "double free must raise Bug"
  | exception Bug.Bug _ -> ());
  match Arena.Gen.revive g2 with
  | _ -> Alcotest.fail "reviving a live slot must raise Bug"
  | exception Bug.Bug _ -> ()

(* === the pooled-segment client =============================================== *)

let flow =
  Ip.flow
    ~src:(Ip.endpoint (Ip.v4 10 0 0 1) 4000)
    ~dst:(Ip.endpoint (Ip.v4 10 0 0 2) 80)

let mk_data_segment () =
  let seg =
    Segment.stamp ~flow ~syn:false ~ack:true ~fin:false ~rst:false ~seq:(Seq32.of_int 100)
      ~ack_seq:(Seq32.of_int 7) ~window:(1 lsl 20) ~dsn:5000 ~len:1460 ~options:[]
  in
  Segment.add_sack seg (Seq32.of_int 1) (Seq32.of_int 2);
  seg

let test_release_clears_slot () =
  let seg = mk_data_segment () in
  checkb "live while owned" true (Segment.is_live seg);
  checki "payload present" 1460 (Segment.payload_len seg);
  Segment.release seg;
  (* everything heap-retaining is dropped before the slot parks, so a
     pooled slot never pins dead payload/options/sack lists *)
  checkb "payload cleared" true (seg.Segment.payload = None);
  checki "sack blocks cleared" 0 seg.Segment.sack_count;
  checkb "options cleared" true (seg.Segment.options = []);
  checkb "not live once released" false (Segment.is_live seg)

let test_generation_catches_uaf () =
  let seg = mk_data_segment () in
  let g0 = Segment.generation seg in
  checkb "stamp starts live" true (Arena.Gen.is_live g0);
  Segment.release seg;
  (* the synthetic use-after-free: a stale handle captured before the
     release. While the slot is parked its generation is odd ... *)
  checkb "stale handle sees a retired stamp" false (Segment.is_live seg);
  checki "retire bumped the stamp" (g0 + 1) (Segment.generation seg);
  (* ... and once the slot is reused, the stale handle's recorded
     generation [g0] no longer matches the slot's stamp, which is how a
     conformance hook rejects it even though the slot is live again. *)
  let seg' = mk_data_segment () in
  checkb "LIFO pool reuses the slot" true (seg == seg');
  checkb "revived" true (Segment.is_live seg');
  checkb "stale capture is detectable" true (Segment.generation seg' <> g0);
  checki "generation moved on by a full retire/revive" (g0 + 2)
    (Segment.generation seg');
  (* a second release of the *old* handle is a double free on the same
     slot: release the live slot once, then again via the stale alias *)
  Segment.release seg';
  match Segment.release seg with
  | () -> Alcotest.fail "double release must raise Bug"
  | exception Bug.Bug _ -> ()

let test_segment_pool_reconciles () =
  (* churn the pool, releasing only some segments (a slot its owner
     keeps stays counted live), then check the domain pool's books still
     reconcile *)
  let segs = List.init 64 (fun _ -> mk_data_segment ()) in
  List.iteri (fun i s -> if i mod 3 <> 0 then Segment.release s) segs;
  let st = Segment.pool_stats () in
  checkb "segment pool reconciles" true
    (st.Arena.takes + st.Arena.adopted = st.Arena.live + st.Arena.puts);
  checkb "high water covers the burst" true (st.Arena.high_water >= 22)

(* === allocation pins ========================================================= *)

(* Minor-heap words [f ()] allocates. Both counter reads stay unboxed, so
   the measurement itself allocates nothing and an exact 0 is a fair pin. *)
let words f =
  let w0 = Gc.minor_words () in
  f ();
  int_of_float (Gc.minor_words () -. w0)

let ops = 10_000
let period = Time.span_us 600

(* Words allocated by [ops] dispatches of a timer that runs [op] and
   re-arms itself [period] ahead. A warm-up of [ops] dispatches first
   fills the pools and grows every ring to its working size. *)
let steady_words e op =
  let rec tick () =
    op ();
    Engine.schedule e (Time.add (Engine.now e) period) tick
  in
  Engine.schedule e (Engine.now e) tick;
  let horizon k = Time.of_ns (k * Time.span_to_ns period) in
  Engine.run_until e (horizon ops);
  let until = horizon (2 * ops) in
  words (fun () -> Engine.run_until e until)

let flow =
  Ip.flow
    ~src:(Ip.endpoint (Ip.v4 10 0 0 1) 1234)
    ~dst:(Ip.endpoint (Ip.v4 10 0 0 2) 80)

let pkt = Packet.make ~flow ~size:1000 (Packet.Raw "")

let mk_link e ~loss =
  let l = Link.create e ~rate_bps:20e6 ~delay:(Time.span_ms 5) ~loss () in
  Link.set_dst l ignore;
  l

let test_engine_dispatch_alloc () =
  checki "words per 10k dispatches" 0 (steady_words (Engine.create ()) ignore)

let test_every_alloc () =
  let e = Engine.create () in
  let ticks = ref 0 in
  let (_ : Engine.timer) =
    Engine.every e period (fun () ->
        incr ticks;
        `Continue)
  in
  let horizon k = Time.of_ns (k * Time.span_to_ns period) in
  Engine.run_until e (horizon ops);
  let until = horizon (2 * ops) in
  checki "words per 10k periods" 0 (words (fun () -> Engine.run_until e until));
  checki "every period ticked" (2 * ops) !ticks

(* Shard 0 posts [per_window] mails of one preallocated thunk to shard 1
   in each of [windows] windows. Neither the mail nor the window loop
   allocates: a window's limit is an int, and the callback [Shard.run]
   hands [lanes] is built once per run. *)
let test_shard_mail_alloc () =
  let g = Shard.create ~shards:2 () in
  let latency = Time.span_us 600 in
  Shard.register_cross g ~src:0 ~dst:1 (fun () -> latency);
  let e0 = Shard.engine g 0 and delivered = ref 0 and left = ref 0 in
  let per_window = 1_000 and windows = 100 in
  let mail () = incr delivered in
  let rec tick () =
    let at = Time.add (Engine.now e0) latency in
    (* one ns apart: a same-instant group is scanned linearly per pop *)
    for i = 0 to per_window - 1 do
      Shard.post g ~src:0 ~dst:1 ~time:(Time.add at (Time.span_ns i)) ~r1:0 ~r2:0 ~r3:0 mail
    done;
    decr left;
    if !left > 0 then Engine.schedule e0 at tick
  in
  let round () =
    left := windows;
    Engine.schedule e0 (Engine.now e0) tick;
    Shard.run g
  in
  round ();
  let w = words round in
  let mails = per_window * windows in
  checki "every mail delivered" (2 * mails) !delivered;
  checki (Printf.sprintf "words per mail (%d words over %d mails)" w mails) 0 (w / mails);
  checki (Printf.sprintf "words over %d windows" windows) 0 w

let test_link_alloc () =
  List.iter
    (fun loss ->
      let e = Engine.create () in
      let l = mk_link e ~loss in
      checki
        (Printf.sprintf "words per 10k sends + drains at loss %g" loss)
        0
        (steady_words e (fun () -> Link.send l pkt)))
    [ 0.0; 0.1 ]

(* The destination of a link that carries pooled segments: it consumes
   each as a stack does. *)
let release_delivered pkt =
  match pkt.Packet.payload with Segment.Tcp seg -> Segment.release seg | _ -> ()

(* Three pooled segments a tick into a 2-packet queue at loss 0.1, and a
   cable pull every tenth tick: every tick overflows the queue, one in
   ten packets it takes is lost, and each pull kills what is in flight
   and meets the next tick's sends at a down link. Each dropped segment
   goes back to its pool, so once warm the pool allocates no slot. *)
let test_segment_drop_alloc () =
  let e = Engine.create () in
  let l =
    Link.create e ~rate_bps:20e6 ~delay:(Time.span_ms 5) ~loss:0.1 ~queue_capacity:2 ()
  in
  Link.set_dst l release_delivered;
  let tick = ref 0 in
  let op () =
    incr tick;
    if !tick mod 10 = 0 then Link.set_up l false
    else if !tick mod 10 = 1 then Link.set_up l true;
    for _ = 1 to 3 do
      Link.send l
        (Segment.to_packet
           (Segment.stamp ~flow ~syn:false ~ack:true ~fin:false ~rst:false ~seq:Seq32.zero
              ~ack_seq:Seq32.zero ~window:0 ~dsn:0 ~len:1000 ~options:[]))
    done
  in
  let rec tick_at () =
    op ();
    Engine.schedule e (Time.add (Engine.now e) period) tick_at
  in
  Engine.schedule e (Engine.now e) tick_at;
  let horizon k = Time.of_ns (k * Time.span_to_ns period) in
  Engine.run_until e (horizon ops);
  let fresh = (Segment.pool_stats ()).Arena.fresh and until = horizon (2 * ops) in
  let w = words (fun () -> Engine.run_until e until) in
  let st = Link.stats l in
  checkb "overflow, loss and pulls all dropped" true
    (st.Link.dropped > ops && st.Link.lost > ops / 10);
  checki (Printf.sprintf "words over %d sends" (3 * ops)) 0 w;
  checki "no fresh segment slot" fresh (Segment.pool_stats ()).Arena.fresh

(* One packet a tick over a link from shard 0 to shard 1: each delivery
   rides a pooled trunk slot through the mailbox. *)
let test_trunk_alloc () =
  let g = Shard.create ~shards:2 () in
  let e0 = Shard.engine g 0 in
  let l = Link.create e0 ~rate_bps:20e6 ~delay:(Time.span_ms 5) () in
  let delivered = ref 0 in
  Link.set_dst l (fun _ -> incr delivered);
  Link.set_remote l (Shard.post g ~src:0 ~dst:1);
  Shard.register_cross g ~src:0 ~dst:1 (fun () -> Link.delay l);
  let left = ref 0 in
  let rec tick () =
    Link.send l pkt;
    decr left;
    if !left > 0 then Engine.schedule e0 (Time.add (Engine.now e0) period) tick
  in
  let round () =
    left := ops;
    Engine.schedule e0 (Engine.now e0) tick;
    Shard.run g
  in
  round ();
  let w = words round in
  checki "every packet delivered" (2 * ops) !delivered;
  checki (Printf.sprintf "words per cross-shard packet (%d over %d)" w ops) 0 (w / ops)

let test_router_alloc () =
  List.iter
    (fun n ->
      let e = Engine.create () in
      let r = Router.create ~salt:7 () in
      Router.add_route r (Ip.v4 10 0 0 2) (List.init n (fun _ -> mk_link e ~loss:0.0));
      checki
        (Printf.sprintf "words per 10k deliveries over %d links" n)
        0
        (steady_words e (fun () -> Router.deliver r pkt)))
    [ 1; 2 ]

let test_rng_alloc () =
  let rng = Rng.of_int 5 in
  checki "words per 10k bernoulli draws" 0
    (words (fun () ->
         for _ = 1 to ops do
           ignore (Sys.opaque_identity (Rng.bernoulli rng 0.1))
         done));
  checki "words per 10k int draws" 0
    (words (fun () ->
         for _ = 1 to ops do
           ignore (Sys.opaque_identity (Rng.int rng 1000))
         done))

let test_flow_hash_alloc () =
  checki "words per 10k flow hashes" 0
    (words (fun () ->
         for _ = 1 to ops do
           ignore (Sys.opaque_identity (Ip.flow_hash ~salt:3 flow))
         done))

let calls = 1_000

(* Words per call of [f], over [calls] calls. *)
let words_per_call f =
  words (fun () ->
      for _ = 1 to calls do
        f ()
      done)
  / calls

(* A hash runs on its domain's one scratch, so it allocates at most its
   result: a token nothing, a join HMAC its 20-byte string, and the check
   of a received HMAC nothing. *)
let test_crypto_alloc () =
  let key = 0x0102030405060708L and peer = 0x1122334455667788L in
  let local_nonce = 0x0a0b0c0dL and remote_nonce = 0x01020304L in
  checki "words per token" 0
    (words_per_call (fun () -> ignore (Sys.opaque_identity (Crypto.token key))));
  checki "words per join_hmac" 4
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity
              (Crypto.join_hmac ~local_key:key ~remote_key:peer ~local_nonce ~remote_nonce))));
  let mac = Crypto.join_hmac ~local_key:key ~remote_key:peer ~local_nonce ~remote_nonce in
  checki "words per HMAC checked" 0
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity
              (Crypto.join_hmac_matches mac ~local_key:key ~remote_key:peer ~local_nonce
                 ~remote_nonce))));
  let msg = String.make 1_000_000 'a' in
  checki "words per 1 MB digest" 4 (words (fun () -> ignore (Sys.opaque_identity (Sha1.digest msg))))

(* === allocation pins above Link =============================================== *)

module Tcb = Smapp_tcp.Tcb
module Cc = Smapp_tcp.Cc
module Host = Smapp_netsim.Host
module Topology = Smapp_netsim.Topology
module Endpoint = Smapp_mptcp.Endpoint
module Connection = Smapp_mptcp.Connection
module Subflow = Smapp_mptcp.Subflow

let client_addr = Ip.v4 10 0 0 1

(* An MPTCP client and server, established, on one 1 Gbps cable whose
   4096-packet queues never tail-drop: a dropped segment leaves its pool
   slot to the GC, and the next take would allocate. [next_seq] and
   [next_ack] follow the last segment the client sent: the wire positions
   the server's next data and ACK take. *)
type pair = {
  engine : Engine.t;
  topo : Topology.direct;
  conn : Connection.t;  (* the client's; nobody subscribes to it *)
  sconn : Connection.t;
  arriving : Ip.flow;  (* the server's flow of the initial subflow *)
  next_seq : Seq32.t ref;
  next_ack : Seq32.t ref;
}

let mptcp_pair ?(config = Tcb.default_config) ?rate_bps () =
  let engine = Engine.create ~seed:7 () in
  let topo = Topology.direct_link engine ?rate_bps () in
  let client = Endpoint.of_host ~tcb_config:config topo.Topology.client in
  let server = Endpoint.of_host ~tcb_config:config topo.Topology.server in
  let accepted = ref None in
  Endpoint.listen server ~port:80 (fun c -> accepted := Some c);
  let next_seq = ref Seq32.zero and next_ack = ref Seq32.zero in
  Host.add_tap topo.Topology.client (fun pkt ->
      match pkt.Packet.payload with
      | Segment.Tcp seg ->
          next_seq := seg.Segment.ack_seq;
          next_ack := seg.Segment.seq
      | _ -> ());
  let conn =
    Endpoint.connect client ~src:client_addr ~dst:(Ip.endpoint (Ip.v4 10 0 0 2) 80) ()
  in
  Engine.run engine;
  match !accepted with
  | Some sconn when Connection.established conn ->
      let arriving = Ip.reverse (Subflow.flow (List.hd (Connection.subflows conn))) in
      { engine; topo; conn; sconn; arriving; next_seq; next_ack }
  | _ -> Alcotest.fail "handshake did not complete"

(* Hand the client a segment from the server: [len] bytes at wire sequence
   [seq] mapped to stream offset [dsn], acknowledging nothing new. *)
let deliver_data p ~seq ~dsn ~len =
  Host.deliver p.topo.Topology.client
    (Segment.to_packet
       (Segment.stamp ~flow:p.arriving ~syn:false ~ack:true ~fin:false ~rst:false ~seq
          ~ack_seq:!(p.next_ack) ~window:65535 ~dsn ~len ~options:[]))

(* Words over [calls] steps after as many warm-up steps. *)
let steady_step_words step =
  for _ = 1 to calls do
    step ()
  done;
  words (fun () ->
      for _ = 1 to calls do
        step ()
      done)

let test_receive_alloc () =
  let p = mptcp_pair () in
  let seq = ref !(p.next_seq) and dsn = ref 0 in
  (* one in-order segment, delivered to the connection; the ACK it sends
     reaches the server before the next step *)
  let step () =
    deliver_data p ~seq:!seq ~dsn:!dsn ~len:1000;
    seq := Seq32.add !seq 1000;
    dsn := !dsn + 1000;
    Engine.run p.engine
  in
  checki "words per 1000 in-order segments received and acked" 0 (steady_step_words step);
  checki "every byte delivered" (2 * calls * 1000) (Connection.bytes_received p.conn)

let test_out_of_order_alloc () =
  let p = mptcp_pair () in
  let seq = ref !(p.next_seq) and dsn = ref 0 in
  (* the second segment arrives first (subflow reassembly), then the
     first, which carries the later stream bytes, so the subflow hands the
     meta level its stream out of order (meta reassembly) *)
  let step () =
    deliver_data p ~seq:(Seq32.add !seq 1000) ~dsn:!dsn ~len:1000;
    deliver_data p ~seq:!seq ~dsn:(!dsn + 1000) ~len:1000;
    seq := Seq32.add !seq 2000;
    dsn := !dsn + 2000;
    Engine.run p.engine
  in
  checki "words per 1000 out-of-order pairs" 0 (steady_step_words step);
  checki "every byte delivered" (2 * calls * 2000) (Connection.bytes_received p.conn)

let test_transmit_alloc () =
  (* room for a warm-up's worth of segments in flight *)
  let config =
    { Tcb.default_config with Tcb.initial_cwnd_segments = 4 * calls; rcv_window = 1 lsl 26 }
  in
  let p = mptcp_pair ~config () in
  let mss = config.Tcb.mss in
  let send () = Connection.send p.conn mss in
  (* warm-up: twice the measured burst queued at once grows the link's
     rings and every pool past what the burst takes; once acknowledged,
     its entries and segments are back in their pools *)
  for _ = 1 to 2 * calls do
    send ()
  done;
  Engine.run p.engine;
  checki "warm-up acknowledged" (2 * calls * mss) (Connection.bytes_acked p.conn);
  (* arms the retransmission timer, which stays armed below *)
  send ();
  checki "words per 1000 MSS scheduled and transmitted" 0
    (words (fun () ->
         for _ = 1 to calls do
           send ()
         done))

let test_lia_ack_alloc () =
  (* the server sends, limited by the client's 64 KB window, to a client
     with three subflows on one 100 Mbit/s cable: every ACK it takes
     advances snd_una by a segment and runs RFC 6356 over three siblings *)
  let config = { Tcb.default_config with Tcb.rcv_window = 1 lsl 16 } in
  let p = mptcp_pair ~config ~rate_bps:1e8 () in
  for _ = 1 to 2 do
    match Connection.add_subflow p.conn ~src:client_addr () with
    | Ok _ -> ()
    | Error e -> Alcotest.failf "add_subflow: %s" e
  done;
  let start = Engine.now p.engine in
  let at_ms ms = Time.add start (Time.span_ms ms) in
  Engine.run_until p.engine (at_ms 200);
  Connection.send p.sconn 1_000_000_000;
  (* a burst of losses takes every subflow into congestion avoidance; a
     second of steady sending then fills the engine's pools *)
  Engine.run_until p.engine (at_ms 250);
  Link.set_loss p.topo.Topology.cable.Topology.back 0.02;
  Engine.run_until p.engine (at_ms 300);
  Link.set_loss p.topo.Topology.cable.Topology.back 0.0;
  Engine.run_until p.engine (at_ms 1300);
  let subflows = Connection.subflows p.sconn in
  checki "three subflows" 3 (List.length subflows);
  List.iter
    (fun sf ->
      let tcb = sf.Subflow.tcb in
      checkb "established, sampled, in congestion avoidance" true
        (Tcb.established tcb && Tcb.srtt_ns tcb > 0 && not (Cc.in_slow_start (Tcb.cc tcb))))
    subflows;
  let acks = ref 0 in
  Host.add_tap p.topo.Topology.client (fun _ -> incr acks);
  let until = at_ms 1500 in
  let w = words (fun () -> Engine.run_until p.engine until) in
  checkb (Printf.sprintf "%d ACKs, at least 1000" !acks) true (!acks >= calls);
  (* the retransmission timer re-arms in place *)
  checki (Printf.sprintf "words over %d ACKs" !acks) 0 w

(* A client with two subflows on one 100 Mbit/s cable sends without end;
   every 2 s the cable is pulled for 2 ms, which kills what is in flight.
   Both subflows then time out once, with at least 10 segments in
   flight, and each RTO copies its subflow's unacknowledged ranges, less
   what the data ACKs cover, to the connection's reinjection queue,
   ahead of what it already holds. Warm-up cycles grow every pool and
   ring; the pin reads the words of later cycles per RTO. What is left
   is what listeners see: each RTO's [Subflow_rto] (4 words), and after
   each recovery the server's [Data_received] for a delivery whose size
   changed (2 words). *)
let test_rto_reinject_alloc () =
  let p = mptcp_pair ~rate_bps:1e8 () in
  (match Connection.add_subflow p.conn ~src:client_addr () with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_subflow: %s" e);
  let reinjecting = ref 0 in
  Connection.subscribe p.conn (function
    | Connection.Subflow_rto (_, _, 1) -> incr reinjecting
    | _ -> ());
  Connection.send p.conn 1_000_000_000;
  let fwd = p.topo.Topology.cable.Topology.fwd in
  let mss = Tcb.default_config.Tcb.mss in
  let start = Time.to_ns (Engine.now p.engine) in
  let at ms = Time.of_ns (start + (ms * 1_000_000)) in
  let cycles = 10 in
  let marks =
    Array.init (2 * cycles) (fun k -> (at ((k * 2000) + 1500), at ((k * 2000) + 1502)))
  in
  (* the words of cycle [k]; each subflow's flight is checked between the
     two brackets, when the cable goes *)
  let cycle k =
    let pull, back = marks.(k) in
    let w = words (fun () -> Engine.run_until p.engine pull) in
    List.iter
      (fun sf ->
        let i = Tcb.info sf.Subflow.tcb in
        checkb "at least 10 segments in flight" true
          (i.Smapp_tcp.Tcp_info.snd_nxt - i.Smapp_tcp.Tcp_info.snd_una >= 10 * mss))
      (Connection.subflows p.conn);
    w
    + words (fun () ->
          Link.set_up fwd false;
          Engine.run_until p.engine back;
          Link.set_up fwd true)
  in
  for k = 0 to cycles - 1 do
    ignore (cycle k)
  done;
  checki "two subflows" 2 (List.length (Connection.subflows p.conn));
  reinjecting := 0;
  let w = ref 0 in
  for k = cycles to (2 * cycles) - 1 do
    w := !w + cycle k
  done;
  checki "each subflow reinjected once a cycle" (2 * cycles) !reinjecting;
  checki (Printf.sprintf "words per RTO (%d over %d)" !w !reinjecting) 7
    (!w / !reinjecting)

(* === conservation: every segment ends once ===================================== *)

(* A client and a server with two NICs each, one router per path. The
   client and the routers sit on shard 0 and the server on the last
   shard, so on two shards the links into and out of the server are
   trunks. Every way a segment can end is on the way:
   - path 0's uplink holds 4 packets, and a window's burst overflows it;
   - path 1's link to the server loses 5%;
   - path 1's uplink is pulled at 300 ms with packets in flight, and
     comes back at 600 ms;
   - a third connection asks for an address no router knows: the router
     answers ICMP and ends the SYN;
   - the server's path-0 NIC is down from 800 to 1,300 ms, while both
     ends send: what arrives on it and what the server sends from it
     end at the host.
   The run drains its queues; the pool then holds every segment the run
   took: as many are live as before it. *)
let conservation_run shards =
  let g = Shard.create ~seed:11 ~shards () in
  let e0 = Shard.engine g 0 and last = shards - 1 in
  let e1 = Shard.engine g last in
  let client = Host.create e0 and server = Host.create e1 in
  let addr side p = Ip.v4 10 p 0 side in
  let link e ?(queue_capacity = 64) ?(loss = 0.0) () =
    Link.create e ~rate_bps:10e6 ~delay:(Time.span_ms 5) ~loss ~queue_capacity ()
  in
  let wire l ~src ~dst deliver =
    Link.set_dst l deliver;
    if src <> dst then begin
      Link.set_remote l (Shard.post g ~src ~dst);
      Shard.register_cross g ~src ~dst (fun () -> Link.delay l)
    end
  in
  let path p ~up_queue ~loss =
    let r = Router.create ~salt:p () in
    let cnic = Host.add_nic client ~name:"eth" ~addr:(addr 1 p) in
    let snic = Host.add_nic server ~name:"eth" ~addr:(addr 2 p) in
    let up = link e0 ~queue_capacity:up_queue () and down = link e0 () in
    let to_server = link e0 ~loss () and from_server = link e1 () in
    Host.attach cnic up;
    Host.attach snic from_server;
    wire up ~src:0 ~dst:0 (Router.deliver r);
    wire down ~src:0 ~dst:0 (Host.deliver client);
    wire to_server ~src:0 ~dst:last (Host.deliver server);
    wire from_server ~src:last ~dst:0 (Router.deliver r);
    Router.add_route r (addr 2 p) [ to_server ];
    Router.add_route r (addr 1 p) [ down ];
    (up, to_server, snic)
  in
  let up0, to_server0, snic0 = path 0 ~up_queue:4 ~loss:0.0 in
  let up1, lossy, _ = path 1 ~up_queue:64 ~loss:0.05 in
  let client_ep = Endpoint.of_host client and server_ep = Endpoint.of_host server in
  let received = ref 0 and echoed = ref 0 and bytes = 2_000_000 and back = 2_000_000 in
  Endpoint.listen server_ep ~port:80 (fun c ->
      Connection.set_receive c (fun n -> received := !received + n);
      Connection.send c back);
  let live0 = (Segment.pool_stats ()).Arena.live in
  let conn =
    Endpoint.connect client_ep ~src:(addr 1 0) ~dst:(Ip.endpoint (addr 2 0) 80) ()
  in
  let lost_conn =
    Endpoint.connect client_ep ~src:(addr 1 0) ~dst:(Ip.endpoint (Ip.v4 10 9 0 2) 80) ()
  in
  Connection.subscribe conn (function
    | Connection.Established ->
        (match
           Connection.add_subflow conn ~src:(addr 1 1) ~dst:(Ip.endpoint (addr 2 1) 80) ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "add_subflow: %s" e);
        Connection.send conn bytes;
        Connection.close conn
    | _ -> ());
  Connection.set_receive conn (fun n -> echoed := !echoed + n);
  let ms n = Time.add Time.zero (Time.span_ms n) in
  let sent_while_down = ref 0 and arrived_while_down = ref 0 in
  let arrivals () = (Link.stats to_server0).Link.delivered in
  Host.add_tap server (fun pkt ->
      if (not (Host.nic_up snic0)) && Ip.equal pkt.Packet.flow.Ip.src.Ip.addr (addr 2 0)
      then incr sent_while_down);
  Engine.schedule e0 (ms 300) (fun () -> Link.set_up up1 false);
  Engine.schedule e0 (ms 600) (fun () -> Link.set_up up1 true);
  Engine.schedule e1 (ms 800) (fun () -> Host.set_nic_up snic0 false);
  Engine.schedule e1 (ms 1300) (fun () -> Host.set_nic_up snic0 true);
  Engine.schedule e0 (ms 810) (fun () -> arrived_while_down := arrivals ());
  Engine.schedule e0 (ms 1290) (fun () ->
      arrived_while_down := arrivals () - !arrived_while_down);
  Shard.run g;
  checki "the stream arrived" bytes !received;
  checki "the server's stream arrived" back !echoed;
  checkb "the unroutable connection lost its subflow" true
    (Connection.subflows lost_conn = [] && not (Connection.established lost_conn));
  checkb "path 0's uplink overflowed" true ((Link.stats up0).Link.dropped > 0);
  checkb "path 1 lost at random" true ((Link.stats lossy).Link.lost > 0);
  checkb "the pull dropped packets" true ((Link.stats up1).Link.dropped > 0);
  checkb "the server sent into its downed NIC" true (!sent_while_down > 0);
  checkb "packets reached the downed NIC" true (!arrived_while_down > 0);
  checki "every segment the run took is back in the pool" live0
    (Segment.pool_stats ()).Arena.live

let test_conservation_one_shard () = conservation_run 1
let test_conservation_two_shards () = conservation_run 2

(* A trunk slot parks in a pool that lives as long as its domain, so it
   must not keep the destination it last delivered to, nor through it
   the run. A host on shard 1 takes ten packets over a trunk from shard
   0; the probe keeps only a weak pointer to it. *)
let trunk_run_probe () =
  let g = Shard.create ~shards:2 () in
  let e0 = Shard.engine g 0 in
  let host = Host.create (Shard.engine g 1) in
  let l = Link.create e0 ~rate_bps:20e6 ~delay:(Time.span_ms 5) () in
  Link.set_dst l (Host.deliver host);
  Link.set_remote l (Shard.post g ~src:0 ~dst:1);
  Shard.register_cross g ~src:0 ~dst:1 (fun () -> Link.delay l);
  for k = 1 to 10 do
    Engine.schedule e0 (Time.add Time.zero (Time.span_ms k)) (fun () -> Link.send l pkt)
  done;
  Shard.run g;
  checki "every packet crossed" 10 (Link.stats l).Link.delivered;
  let w = Weak.create 1 in
  Weak.set w 0 (Some host);
  w
[@@inline never]

let test_finished_run_collected () =
  let w = trunk_run_probe () in
  Gc.full_major ();
  checkb "the host is collected" false (Weak.check w 0)

(* === allocation pins on the control plane ====================================== *)

module Channel = Smapp_netlink.Channel
module Setup = Smapp_core.Setup
module Pm_lib = Smapp_core.Pm_lib

(* With observability off, the words a message or a command costs are the
   ones the simulation needs: nothing is built for a metric or a span. *)
let check_obs_off () =
  checkb "observability off" false (Atomic.get Smapp_obs.Scope.enabled)

(* One kernel->user message per tick, delivered before the next: the
   message waits in its direction's queue, and one callback per direction
   delivers it. *)
let test_netlink_crossing_alloc () =
  check_obs_off ();
  let e = Engine.create () in
  let ch = Channel.create e () in
  let received = ref 0 in
  Channel.on_user_receive ch (fun _ -> incr received);
  let w = steady_words e (fun () -> Channel.kernel_send ch "event") in
  checki "every message crossed" (2 * ops) !received;
  checki (Printf.sprintf "words per crossing (%d over %d)" w ops) 0 (w / ops)

module Pm_msg = Smapp_core.Pm_msg
module Factory = Smapp_controllers.Factory

(* One kernel event per tick, encoded beforehand, crosses to a library
   whose per-connection controller counts it: the decoded event is read in
   place and reaches the controller through the view and the factory. What
   is left is the event's record: the view's lookup of its connection
   builds no option. *)
let test_event_dispatch_alloc () =
  check_obs_off ();
  let e = Engine.create () in
  let ch = Channel.create e () in
  let pm = Pm_lib.create e ch in
  let timeouts = ref 0 in
  let count _ ~sub_id:_ ~rto:_ ~count:_ = incr timeouts in
  ignore (Factory.start pm (fun _ _ -> { Factory.null_events with Factory.on_timeout = count }));
  let created = Pm_msg.Created { token = 7; flow; sub_id = 1 } in
  Channel.kernel_send ch (Pm_msg.encode_event ~seq:1 created);
  let timeout = Pm_msg.Timeout { token = 7; sub_id = 1; rto = Time.span_ms 200; count = 1 } in
  let events = Array.init ((2 * ops) + 1) (fun i -> Pm_msg.encode_event ~seq:(i + 2) timeout) in
  let sent = ref 0 in
  let w =
    steady_words e (fun () ->
        Channel.kernel_send ch events.(!sent);
        incr sent)
  in
  checki "every event reached the controller" (2 * ops) !timeouts;
  checki (Printf.sprintf "words per event dispatched (%d over %d)" w ops) 5 (w / ops)

(* One command per tick, down to the kernel path manager and its reply
   back up: two crossings, the codec both ways, the retry timer and the
   kernel's replay cache. The library's lookup of the pending command
   builds no option. *)
let test_pm_round_trip_alloc () =
  check_obs_off ();
  let e = Engine.create () in
  let topo = Topology.direct_link e () in
  let setup = Setup.attach (Endpoint.of_host topo.Topology.client) in
  let replies = ref 0 in
  let on_reply (_ : (Smapp_core.Pm_msg.conn_info, string) result) = incr replies in
  let w =
    steady_words e (fun () -> Pm_lib.get_conn_info setup.Setup.pm ~token:0xBAD on_reply)
  in
  checki "every command answered" (2 * ops) !replies;
  checki (Printf.sprintf "words per round trip (%d over %d)" w ops) 59 (w / ops)

(* === allocation pins on connection set-up ===================================== *)

module Retry = Smapp_core.Retry

(* Each call below arms one timer, and [calls] of them fit the engine's
   first heap array (1,024 slots): no call pays for a regrowth. *)

(* A TCB is its record and state, one SYN (taken from the segment pool
   and given back by [tx]) and one retransmission timer: the record and
   the timer's callback refer to each other, and the timer is built once.
   The record keeps no snapshot of its unacknowledged ranges for its
   close: a meta layer walks its chains inside [on_close]. The SYN is
   stamped with every field given, and every argument is required, so
   nothing is boxed. *)
let test_tcb_create_alloc () =
  let e = Engine.create () in
  checki "words per TCB created" 90
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity
              (Tcb.create_active e ~tx:Segment.release ~forget:ignore ~flow
                 ~config:Tcb.default_config ~backup:false ~syn_options:[] Tcb.null_callbacks))))

(* A retry run is its record and one timer that its callback re-arms; its
   first delay boxes no float. *)
let test_retry_start_alloc () =
  let e = Engine.create () in
  let body ~attempt:_ = () in
  checki "words per Retry.start" 25
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity (Retry.start e Retry.command_default ~body ~exhausted:ignore ()))))

module Stack = Smapp_tcp.Stack

(* A TCB opened with [Stack.connect] on a stack that already holds 1,000
   live ones, then aborted: the TCB, its SYN and RST (pooled segments the
   host drops for want of a route), its flow and table key, each built
   once, and one bucket of the stack's table, which its close hook
   empties. The stack's arguments are required, so it boxes none. *)
let test_tcb_open_close_alloc () =
  let e = Engine.create () in
  let stack = Stack.attach (Host.create e) in
  let src = Ip.v4 10 0 0 1 and dst = Ip.endpoint (Ip.v4 10 0 0 2) 80 in
  let config = Tcb.default_config and cbs = Tcb.null_callbacks in
  for port = 1 to 1_000 do
    ignore (Stack.connect stack ~src ~dst ~src_port:port ~config ~backup:false ~syn_options:[] cbs)
  done;
  checki "words per TCB opened and closed" 106
    (words_per_call (fun () ->
         Tcb.abort
           (Stack.connect stack ~src ~dst ~src_port:5_000 ~config ~backup:false ~syn_options:[]
              cbs)))

(* A client joins a subflow to an established connection, and the engine
   drains: the client's [add_subflow] (its nonce, its TCB and MP_JOIN SYN,
   its subflow record), the server's listener and [attach_join] (its nonce
   and HMAC, its TCB and SYN-ACK), the join ACK's HMAC and both sides'
   establishment. Each side checks the HMAC it receives in place, and
   keeps the nonces on its subflow record. The subflow is then aborted
   and the run drained outside the count, so every join starts from one
   subflow. Both sides hand the new TCB their connection's one callbacks
   record; neither builds an accept record, an option or a closure for
   it, and the client's connect builds its flow once. *)
let test_join_alloc () =
  let p = mptcp_pair () in
  let last = ref (List.hd (Connection.subflows p.conn)) in
  let join () =
    (match Connection.add_subflow p.conn ~src:client_addr () with
    | Ok sf -> last := sf
    | Error e -> Alcotest.failf "add_subflow: %s" e);
    Engine.run p.engine
  in
  let cycle () =
    let w = words join in
    if not (Subflow.established !last) then Alcotest.fail "the join did not complete";
    Connection.remove_subflow p.conn !last;
    Engine.run p.engine;
    w
  in
  for _ = 1 to calls do
    ignore (cycle ())
  done;
  let total = ref 0 in
  for _ = 1 to calls do
    total := !total + cycle ()
  done;
  checki "the client keeps one subflow" 1 (List.length (Connection.subflows p.conn));
  checki "the server keeps one subflow" 1 (List.length (Connection.subflows p.sconn));
  checki "words per join executed" 286 (!total / calls)

(* === allocation pins on a subflow's open ========================================= *)

module Options = Smapp_mptcp.Options
module Conn_view = Smapp_controllers.Conn_view

(* Each open pin below runs [prefill] opens, then counts [opened] more:
   the endpoint's and the stack's tables, and the engine's heap (the
   client's SYN timers), then hold between 1,100 and 2,000 entries, where
   none of their arrays grows. *)
let prefill = 1_100
let opened = 900

let words_per_open f =
  for i = 1 to prefill do
    f i
  done;
  words (fun () ->
      for i = prefill + 1 to prefill + opened do
        f i
      done)
  / opened

let server_addr = Ip.v4 10 0 0 2

(* A client connect keeps what it builds: the connection record and its
   callbacks, its key, its TCB and subflow record, the MP_CAPABLE SYN's
   option (the SYN itself is back in its pool: the host has no route), the
   flow and table key of its one port draw, and the endpoint's and the
   stack's table entries. No placeholder flow, closure or boxed optional
   argument is built on the way. *)
let test_client_connect_alloc () =
  let e = Engine.create ~seed:7 () in
  let ep = Endpoint.of_host (Host.create e) in
  let dst = Ip.endpoint server_addr 80 in
  checki "words per client connect" 241
    (words_per_open (fun _ -> ignore (Endpoint.connect ep ~src:client_addr ~dst ())))

(* An MP_CAPABLE SYN delivered to a host whose NIC has no link, through
   the stack's listener to the endpoint, which opens the passive TCB
   itself: the connection record and its callbacks, its TCB and subflow
   record, the SYN-ACK's option (the SYN-ACK is back in its pool), the
   application's subscription, and the tables' entries. No accept record,
   closure or option. *)
let test_server_syn_alloc () =
  let e = Engine.create ~seed:7 () in
  let host = Host.create e in
  ignore (Host.add_nic host ~name:"eth0" ~addr:server_addr);
  let ep = Endpoint.of_host host in
  Endpoint.listen ep ~port:80 ignore;
  let options = [ Options.Mp_capable { key = 0x0102030405060708L } ] in
  let dst = Ip.endpoint server_addr 80 in
  let flows =
    Array.init (prefill + opened + 1) (fun i ->
        Ip.flow ~src:(Ip.endpoint client_addr (10_000 + i)) ~dst)
  in
  let syn i =
    Host.deliver host
      (Segment.to_packet
         (Segment.stamp ~flow:flows.(i) ~syn:true ~ack:false ~fin:false ~rst:false
            ~seq:Seq32.zero ~ack_seq:Seq32.zero ~window:65535 ~dsn:0 ~len:0 ~options))
  in
  checki "words per server SYN accepted" 250 (words_per_open syn);
  checki "every SYN accepted" (prefill + opened) (List.length (Endpoint.connections ep))

(* One connection's life as the view sees it: created, estab, four
   sub_estab, four sub_closed (in another order than they opened, so a
   removal meets both ends and the middle) and closed, with null
   handlers. A library decodes the events; the words counted are those of
   the same stream to a library with the view, less those to one whose
   subscriber ignores it, so the decoding is counted apart. No lookup
   builds an option and no walk a closure; what is left is the record,
   its table node and bucket (16 words), each subflow's record and cell
   (24), the cells an in-order append copies (18) and those a removal
   copies ahead of the subflow it drops (9). *)
let lives = 1_000

let view_life_words ~view =
  let e = Engine.create () in
  let ch = Channel.create e () in
  let pm = Pm_lib.create e ch in
  if view then ignore (Conn_view.create pm ())
  else
    Pm_lib.on_event pm
      ~mask:
        Pm_msg.Mask.(
          created lor estab lor closed lor sub_estab lor sub_closed lor add_addr lor rem_addr)
      ignore;
  let dst = Ip.endpoint server_addr 80 in
  let flow i = Ip.flow ~src:(Ip.endpoint client_addr (10_000 + i)) ~dst in
  let life token =
    [ Pm_msg.Created { token; flow = flow 0; sub_id = 0 }; Pm_msg.Estab { token } ]
    @ List.init 4 (fun i -> Pm_msg.Sub_estab { token; sub_id = i; flow = flow i; backup = false })
    @ List.map
        (fun i -> Pm_msg.Sub_closed { token; sub_id = i; flow = flow i; error = None })
        [ 1; 3; 0; 2 ]
    @ [ Pm_msg.Closed { token } ]
  in
  let msgs =
    Array.of_list
      (List.mapi
         (fun i ev -> Pm_msg.encode_event ~seq:(i + 1) ev)
         (List.concat (List.init (2 * lives) (fun k -> life (k + 1)))))
  in
  let per_life = Array.length msgs / (2 * lives) in
  let next = ref 0 in
  let one_life () =
    for _ = 1 to per_life do
      Channel.kernel_send ch msgs.(!next);
      incr next
    done;
    Engine.run e
  in
  for _ = 1 to lives do
    one_life ()
  done;
  let w =
    words (fun () ->
        for _ = 1 to lives do
          one_life ()
        done)
  in
  checki "every event delivered" (Array.length msgs) (Pm_lib.events_received pm);
  w

let test_view_event_alloc () =
  check_obs_off ();
  let w = (view_life_words ~view:true - view_life_words ~view:false) / lives in
  checki "words per connection's 11 view events" 67 w

(* === runner ================================================================== *)

let () =
  Alcotest.run "arena"
    [
      ( "aliasing",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_no_live_aliases;
          QCheck_alcotest.to_alcotest ~long:false prop_no_tag_clobber;
        ] );
      ( "stats",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_stats_reconcile;
          Alcotest.test_case "adoption counted" `Quick test_adoption_counted;
        ] );
      ( "generation",
        [
          Alcotest.test_case "parity protocol" `Quick test_gen_protocol;
          Alcotest.test_case "release clears the slot" `Quick
            test_release_clears_slot;
          Alcotest.test_case "generation catches use-after-free" `Quick
            test_generation_catches_uaf;
          Alcotest.test_case "segment pool reconciles" `Quick
            test_segment_pool_reconciles;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "engine dispatch" `Quick test_engine_dispatch_alloc;
          Alcotest.test_case "every tick" `Quick test_every_alloc;
          Alcotest.test_case "shard mail" `Quick test_shard_mail_alloc;
          Alcotest.test_case "link send and drain" `Quick test_link_alloc;
          Alcotest.test_case "segment dropped" `Quick test_segment_drop_alloc;
          Alcotest.test_case "trunk delivery" `Quick test_trunk_alloc;
          Alcotest.test_case "router deliver" `Quick test_router_alloc;
          Alcotest.test_case "rng draws" `Quick test_rng_alloc;
          Alcotest.test_case "flow hash" `Quick test_flow_hash_alloc;
          Alcotest.test_case "handshake crypto" `Quick test_crypto_alloc;
          Alcotest.test_case "in-order segment received" `Quick test_receive_alloc;
          Alcotest.test_case "out-of-order segment reassembled" `Quick
            test_out_of_order_alloc;
          Alcotest.test_case "segment scheduled and sent" `Quick test_transmit_alloc;
          Alcotest.test_case "lia ack" `Quick test_lia_ack_alloc;
          Alcotest.test_case "rto reinjection" `Quick test_rto_reinject_alloc;
          Alcotest.test_case "tcb created" `Quick test_tcb_create_alloc;
          Alcotest.test_case "retry started" `Quick test_retry_start_alloc;
          Alcotest.test_case "netlink crossing" `Quick test_netlink_crossing_alloc;
          Alcotest.test_case "pm command round trip" `Quick test_pm_round_trip_alloc;
          Alcotest.test_case "event dispatched" `Quick test_event_dispatch_alloc;
          Alcotest.test_case "tcb opened and closed" `Quick test_tcb_open_close_alloc;
          Alcotest.test_case "a join executed" `Quick test_join_alloc;
          Alcotest.test_case "a client connect" `Quick test_client_connect_alloc;
          Alcotest.test_case "a server SYN accepted" `Quick test_server_syn_alloc;
          Alcotest.test_case "a view event" `Quick test_view_event_alloc;
        ] );
      ( "lifetime",
        [
          Alcotest.test_case "every segment ends once, 1 shard" `Quick
            test_conservation_one_shard;
          Alcotest.test_case "every segment ends once, 2 shards" `Quick
            test_conservation_two_shards;
          Alcotest.test_case "a finished sharded run is collected" `Quick
            test_finished_run_collected;
        ] );
    ]
