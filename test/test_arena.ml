(* Property tests for the hot-path freelist (Smapp_sim.Arena) and the
   pooled-segment client built on it: the aliasing discipline (the pool
   never hands one slot to two owners), slot clearing on release, the
   generation-parity use-after-free tripwire, and the counter
   reconciliation identity [takes + adopted = live + puts]. Then the
   allocation pins: the event spine and the datapath below TCP allocate
   nothing per operation in steady state, and the handshake's SHA-1
   allocates its scratch and result only, never per block. *)

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
    Segment.make ~flow ~ack:true ~seq:(Seq32.of_int 100)
      ~ack_seq:(Seq32.of_int 7)
      ~payload:{ Segment.dsn = 5000; len = 1460 }
      ()
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
  (* churn the pool, releasing only some segments (losses fall to the
     GC), then check the domain pool's books still reconcile *)
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
  let horizon k = Some (Time.of_ns (k * Time.span_to_ns period)) in
  Engine.run ?until:(horizon ops) e;
  let until = horizon (2 * ops) in
  words (fun () -> Engine.run ?until e)

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
  let horizon k = Some (Time.of_ns (k * Time.span_to_ns period)) in
  Engine.run ?until:(horizon ops) e;
  let until = horizon (2 * ops) in
  checki "words per 10k periods" 0 (words (fun () -> Engine.run ?until e));
  checki "every period ticked" (2 * ops) !ticks

(* Shard 0 posts [per_window] mails of one preallocated thunk to shard 1
   in each of [windows] windows. Mail allocates nothing; the window loop
   allocates a few words per window (the options in [Shard.run]'s
   [next_time], [lookahead] and window limit, the closure it hands
   [lanes], and [Engine.run ~until]'s optional argument), pinned per
   window. *)
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
  checkb
    (Printf.sprintf "%d words over %d windows, at most 20 a window" w windows)
    true
    (w <= 20 * windows)

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

let test_crypto_alloc () =
  let key = 0x0102030405060708L and peer = 0x1122334455667788L in
  let tok = words_per_call (fun () -> ignore (Sys.opaque_identity (Crypto.token key))) in
  checkb (Printf.sprintf "token: %d words per call, at most 50" tok) true (tok <= 50);
  let hmac =
    words_per_call (fun () ->
        ignore
          (Sys.opaque_identity
             (Crypto.join_hmac ~local_key:key ~remote_key:peer ~local_nonce:0x0a0b0c0dL
                ~remote_nonce:0x01020304L)))
  in
  checkb (Printf.sprintf "join_hmac: %d words per call, at most 100" hmac) true (hmac <= 100);
  let msg = String.make 1_000_000 'a' in
  let digest = words (fun () -> ignore (Sys.opaque_identity (Sha1.digest msg))) in
  checkb (Printf.sprintf "1 MB digest: %d words in all, at most 100" digest) true (digest <= 100)

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
  let at_ms ms = Some (Time.add start (Time.span_ms ms)) in
  Engine.run ?until:(at_ms 200) p.engine;
  Connection.send p.sconn 1_000_000_000;
  (* a burst of losses takes every subflow into congestion avoidance; a
     second of steady sending then fills the engine's pools *)
  Engine.run ?until:(at_ms 250) p.engine;
  Link.set_loss p.topo.Topology.cable.Topology.back 0.02;
  Engine.run ?until:(at_ms 300) p.engine;
  Link.set_loss p.topo.Topology.cable.Topology.back 0.0;
  Engine.run ?until:(at_ms 1300) p.engine;
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
  let w = words (fun () -> Engine.run ?until p.engine) in
  checkb (Printf.sprintf "%d ACKs, at least 1000" !acks) true (!acks >= calls);
  (* the retransmission timer re-arms in place *)
  checki (Printf.sprintf "words over %d ACKs" !acks) 0 w

(* === allocation pins on the control plane ====================================== *)

module Channel = Smapp_netlink.Channel
module Setup = Smapp_core.Setup
module Pm_lib = Smapp_core.Pm_lib

(* With observability off, the words a message or a command costs are the
   ones the simulation needs: nothing is built for a metric or a span. *)
let check_obs_off () =
  checkb "observability off" false (Atomic.get Smapp_obs.Scope.enabled)

(* One kernel->user message per tick, delivered before the next. *)
let test_netlink_crossing_alloc () =
  check_obs_off ();
  let e = Engine.create () in
  let ch = Channel.create e () in
  let received = ref 0 in
  Channel.on_user_receive ch (fun _ -> incr received);
  let w = steady_words e (fun () -> Channel.kernel_send ch "event") in
  checki "every message crossed" (2 * ops) !received;
  checki (Printf.sprintf "words per crossing (%d over %d)" w ops) 14 (w / ops)

(* One command per tick, down to the kernel path manager and its reply
   back up: two crossings, the codec both ways, the retry timer and the
   kernel's replay cache. *)
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
  checki (Printf.sprintf "words per round trip (%d over %d)" w ops) 238 (w / ops)

(* === allocation pins on connection set-up ===================================== *)

module Retry = Smapp_core.Retry

(* Each call below arms one timer, and [calls] of them fit the engine's
   first heap array (1,024 slots): no call pays for a regrowth. *)

(* A TCB is its record and state, one SYN (taken from the segment pool
   and given back by [tx]) and one retransmission timer: the record and
   the timer's callback refer to each other, and the timer is built once. *)
let test_tcb_create_alloc () =
  let e = Engine.create () in
  checki "words per TCB created" 104
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity
              (Tcb.create_active e ~tx:Segment.release ~flow Tcb.null_callbacks))))

(* A retry run is its record and one timer that its callback re-arms. *)
let test_retry_start_alloc () =
  let e = Engine.create () in
  let body ~attempt:_ = () in
  checki "words per Retry.start" 31
    (words_per_call (fun () ->
         ignore
           (Sys.opaque_identity (Retry.start e Retry.command_default ~body ~exhausted:ignore ()))))

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
          Alcotest.test_case "router deliver" `Quick test_router_alloc;
          Alcotest.test_case "rng draws" `Quick test_rng_alloc;
          Alcotest.test_case "flow hash" `Quick test_flow_hash_alloc;
          Alcotest.test_case "handshake crypto" `Quick test_crypto_alloc;
          Alcotest.test_case "in-order segment received" `Quick test_receive_alloc;
          Alcotest.test_case "out-of-order segment reassembled" `Quick
            test_out_of_order_alloc;
          Alcotest.test_case "segment scheduled and sent" `Quick test_transmit_alloc;
          Alcotest.test_case "lia ack" `Quick test_lia_ack_alloc;
          Alcotest.test_case "tcb created" `Quick test_tcb_create_alloc;
          Alcotest.test_case "retry started" `Quick test_retry_start_alloc;
          Alcotest.test_case "netlink crossing" `Quick test_netlink_crossing_alloc;
          Alcotest.test_case "pm command round trip" `Quick test_pm_round_trip_alloc;
        ] );
    ]
