(* Tests for the network substrate: addresses, links, hosts, routers,
   topologies. *)

open Smapp_sim
open Smapp_netsim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool
let checks = Alcotest.check Alcotest.string

(* --- Ip ----------------------------------------------------------------------- *)

let test_ip_roundtrip () =
  let a = Ip.v4 10 0 3 1 in
  checks "to_string" "10.0.3.1" (Ip.to_string a);
  checkb "of_string" true (Ip.equal a (Ip.of_string "10.0.3.1"))

let test_ip_bad_input () =
  Alcotest.check_raises "byte range" (Invalid_argument "Ip.v4: a out of range") (fun () ->
      ignore (Ip.v4 256 0 0 1));
  Alcotest.check_raises "parse" (Invalid_argument "Ip.of_string: junk") (fun () ->
      ignore (Ip.of_string "junk"))

let mk_flow sp dp =
  Ip.flow
    ~src:(Ip.endpoint (Ip.v4 10 0 0 1) sp)
    ~dst:(Ip.endpoint (Ip.v4 10 0 0 2) dp)

let test_flow_hash_symmetric () =
  let f = mk_flow 1234 80 in
  checki "symmetric" (Ip.flow_hash ~salt:7 f) (Ip.flow_hash ~salt:7 (Ip.reverse f))

let test_flow_hash_salt_sensitivity () =
  let f = mk_flow 1234 80 in
  checkb "salt changes hash" true (Ip.flow_hash ~salt:1 f <> Ip.flow_hash ~salt:2 f)

let flow_hash_props =
  [
    QCheck.Test.make ~name:"flow_hash symmetric under reversal" ~count:300
      QCheck.(quad (int_range 1 65535) (int_range 1 65535) (int_range 0 255) small_int)
      (fun (sp, dp, b, salt) ->
        let f =
          Ip.flow
            ~src:(Ip.endpoint (Ip.v4 10 0 b 1) sp)
            ~dst:(Ip.endpoint (Ip.v4 10 9 b 2) dp)
        in
        Ip.flow_hash ~salt f = Ip.flow_hash ~salt (Ip.reverse f)
        && Ip.flow_hash ~salt f >= 0);
  ]

(* --- Link ---------------------------------------------------------------------- *)

let raw_packet ?(size = 1000) () =
  Packet.make ~flow:(mk_flow 1111 80) ~size (Packet.Raw "x")

let test_link_delay_and_rate () =
  (* 1000 bytes at 8 Mbps = 1 ms tx + 10 ms prop = 11 ms *)
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 10) () in
  let arrival = ref None in
  Link.set_dst link (fun _ -> arrival := Some (Engine.now e));
  Link.send link (raw_packet ());
  Engine.run e;
  match !arrival with
  | Some t -> checki "tx+prop delay" 11_000_000 (Time.to_ns t)
  | None -> Alcotest.fail "packet lost"

let test_link_serialization () =
  (* two packets queue: second arrives one tx-time later *)
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 10) () in
  let arrivals = ref [] in
  Link.set_dst link (fun _ -> arrivals := Time.to_ns (Engine.now e) :: !arrivals);
  Link.send link (raw_packet ());
  Link.send link (raw_packet ());
  Engine.run e;
  match List.rev !arrivals with
  | [ a; b ] ->
      checki "first" 11_000_000 a;
      checki "second" 12_000_000 b
  | l -> Alcotest.failf "expected 2 arrivals, got %d" (List.length l)

let test_link_queue_overflow () =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 1) ~queue_capacity:5 () in
  let count = ref 0 in
  Link.set_dst link (fun _ -> incr count);
  for _ = 1 to 10 do
    Link.send link (raw_packet ())
  done;
  Engine.run e;
  checki "only queue capacity delivered" 5 !count;
  checki "stats dropped" 5 (Link.stats link).Link.dropped

let test_link_loss_rate () =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:1e9 ~delay:(Time.span_us 1) ~loss:0.3
      ~queue_capacity:100000 () in
  let count = ref 0 in
  Link.set_dst link (fun _ -> incr count);
  let n = 20_000 in
  (* send in batches to avoid queueing artifacts *)
  for i = 0 to n - 1 do
    ignore
      (Engine.at e (Time.of_ns (i * 1000)) (fun () -> Link.send link (raw_packet ())))
  done;
  Engine.run e;
  let rate = 1.0 -. (float_of_int !count /. float_of_int n) in
  checkb "loss about 30%" true (rate > 0.28 && rate < 0.32)

let test_link_down_drops () =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:1e6 ~delay:(Time.span_ms 1) () in
  let count = ref 0 in
  Link.set_dst link (fun _ -> incr count);
  Link.set_up link false;
  Link.send link (raw_packet ());
  Engine.run e;
  checki "nothing delivered" 0 !count

let test_link_down_kills_in_flight () =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:1e6 ~delay:(Time.span_ms 1) () in
  let count = ref 0 in
  Link.set_dst link (fun _ -> incr count);
  (* 1000 B at 1 Mbit/s = 8 ms tx + 1 ms prop: the cable is pulled at 5 ms,
     mid-transmission *)
  Link.send link (raw_packet ());
  ignore (Engine.at e (Time.of_ns 5_000_000) (fun () -> Link.set_up link false));
  Engine.run e;
  checki "nothing delivered" 0 !count;
  checki "counted as dropped" 1 (Link.stats link).Link.dropped;
  checki "not counted as delivered" 0 (Link.stats link).Link.delivered

let test_link_up_again_does_not_resurrect () =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:1e6 ~delay:(Time.span_ms 1) () in
  let count = ref 0 in
  Link.set_dst link (fun _ -> incr count);
  Link.send link (raw_packet ());
  (* a down/up blip strictly inside the packet's flight window: the packet
     died with the link and must not come back with it *)
  ignore (Engine.at e (Time.of_ns 5_000_000) (fun () -> Link.set_up link false));
  ignore (Engine.at e (Time.of_ns 6_000_000) (fun () -> Link.set_up link true));
  (* a packet sent after recovery flows normally *)
  ignore (Engine.at e (Time.of_ns 7_000_000) (fun () -> Link.send link (raw_packet ())));
  Engine.run e;
  checki "only the post-recovery packet arrives" 1 !count;
  checki "the in-flight one was dropped" 1 (Link.stats link).Link.dropped

(* A delay cut while packets are in flight: on an 8 Mbit/s link (1000 B
   is 1 ms on the wire) with 30 ms of delay, "a" leaves at 0. At 1 ms the
   delay drops to 10 ms for "b", then rises to 28 ms for "c". "b"
   overtakes "a", and "a" and "c" tie at 31 ms on one link, where
   transmit time orders them. Pulled at 5 ms and restored at 6 ms, the
   cable kills all three in flight. *)
let delay_cut_run ~pull =
  let e = Engine.create () in
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 30) () in
  let got = ref [] in
  Link.set_dst link (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Raw s -> got := (s, Time.to_ns (Engine.now e)) :: !got
      | _ -> Alcotest.fail "unexpected payload");
  let send s =
    Link.send link (Packet.make ~flow:(mk_flow 1111 80) ~size:1000 (Packet.Raw s))
  in
  send "a";
  ignore
    (Engine.at e (Time.of_ns 1_000_000) (fun () ->
         Link.set_delay link (Time.span_ms 10);
         send "b";
         Link.set_delay link (Time.span_ms 28);
         send "c"));
  if pull then begin
    ignore (Engine.at e (Time.of_ns 5_000_000) (fun () -> Link.set_up link false));
    ignore (Engine.at e (Time.of_ns 6_000_000) (fun () -> Link.set_up link true))
  end;
  Engine.run e;
  (List.rev !got, (Link.stats link).Link.dropped)

let test_link_delay_cut_reorders () =
  let arrivals = Alcotest.(list (pair string int)) in
  let got, dropped = delay_cut_run ~pull:false in
  Alcotest.check arrivals "b overtakes a; the a/c tie goes by transmit time"
    [ ("b", 12_000_000); ("a", 31_000_000); ("c", 31_000_000) ]
    got;
  checki "nothing dropped" 0 dropped;
  let got, dropped = delay_cut_run ~pull:true in
  Alcotest.check arrivals "the pull kills all three" [] got;
  checki "all three dropped" 3 dropped

(* The same-instant rule: a transmission that ends at T has freed its slot
   for any send at T. On a capacity-1 link (1000 B at 8 Mbit/s is 1 ms on
   the wire, then 1 ms of delay) packet A is sent at 0 and ends at 1 ms.
   Two timers armed at set-up, before A existed, send at 1 ms: whichever
   runs first takes the slot A freed (B), and the other finds B
   transmitting and is dropped. A's delivery at 2 ms, when B's
   transmission ends, sends C, which is accepted. *)
let same_instant_run e =
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 1) ~queue_capacity:1 () in
  let arrivals = ref [] in
  Link.set_dst link (fun _ ->
      arrivals := Time.to_ns (Engine.now e) :: !arrivals;
      if List.length !arrivals = 1 then Link.send link (raw_packet ()));
  let send_at ms =
    ignore
      (Engine.at e (Time.of_ns (ms * 1_000_000)) (fun () -> Link.send link (raw_packet ())))
  in
  send_at 0;
  send_at 1;
  send_at 1;
  Engine.run e;
  (List.rev !arrivals, Link.stats link)

let test_link_same_instant_slot () =
  let slot e =
    let arrivals, st = same_instant_run e in
    Printf.sprintf "arrivals %s, dropped %d"
      (String.concat " " (List.map string_of_int arrivals))
      st.Link.dropped
  in
  let o = Smapp_check.Explore.run slot in
  checki "both orders of the 1 ms sends" 2 o.Smapp_check.Explore.schedules;
  checks "A, B and C arrive; one 1 ms send is dropped"
    "arrivals 2000000 3000000 4000000, dropped 1" o.Smapp_check.Explore.baseline;
  checkb "order-invariant" true (Smapp_check.Explore.consistent o)

(* --- link oracle: a drop-tail FIFO model computed here, not by Link ------------ *)

(* Tie-heavy scenarios: several identically shaped links fed bursts at
   coarse instants, so many deliveries share a drain instant within and
   across links. Every run is checked against a model of a drop-tail FIFO
   link computed in this test:
   - a packet starts transmitting at max(send time, end of the previous
     transmission) and takes 8·size/rate;
   - it arrives [delay] after its transmission ends;
   - a send that finds [queue_capacity] packets queued or transmitting is
     dropped; a transmission ending at the send's instant has freed its
     slot;
   - a cable pull at instant k discards every packet arriving at k or
     later (deliveries rank after unranked events of the same instant)
     and every later send;
   - same-instant arrivals follow the engine's (time, rank, seq) rule with
     the link's delivery rank (send time, link uid, per-link serial);
     links take uids in construction order and the serial counts every
     send, dropped or not.
   Random loss removes arrivals but not queue occupancy (a lost packet
   still used its transmission slot), so under loss the model still
   predicts every possible arrival. *)
type drain_scenario = {
  ds_links : int;
  ds_rate : float;
  ds_delay_ms : int;
  ds_loss : float;
  ds_qcap : int;
  ds_sends : (int * int * int) list;  (* (ms instant, link, size class) *)
  ds_kill : (int * int) option;  (* cable pull: (ms instant, link) *)
  ds_seed : int;
}

let gen_drain_scenario =
  let open QCheck.Gen in
  let* ds_links = int_range 2 4 in
  let* ds_rate = oneofl [ 8e6; 1e6 ] in
  let* ds_delay_ms = int_range 1 3 in
  let* ds_loss = oneofl [ 0.0; 0.0; 0.25 ] in
  let* ds_qcap = int_range 3 40 in
  let* ds_sends =
    list_size (int_range 10 80)
      (triple (int_range 0 20) (int_range 0 (ds_links - 1)) (int_range 0 2))
  in
  let* ds_kill = opt (pair (int_range 0 25) (int_range 0 (ds_links - 1))) in
  let* ds_seed = int_range 1 1_000 in
  return { ds_links; ds_rate; ds_delay_ms; ds_loss; ds_qcap; ds_sends; ds_kill; ds_seed }

let arb_drain_scenario =
  QCheck.make gen_drain_scenario ~print:(fun sc ->
      Printf.sprintf "links=%d rate=%g delay=%dms loss=%g qcap=%d sends=%d kill=%s seed=%d"
        sc.ds_links sc.ds_rate sc.ds_delay_ms sc.ds_loss sc.ds_qcap
        (List.length sc.ds_sends)
        (match sc.ds_kill with
        | None -> "none"
        | Some (ms, l) -> Printf.sprintf "%dms@l%d" ms l)
        sc.ds_seed)

let scenario_size cls = 400 + (300 * cls)

(* (arrival ns, link, size) in delivery order, and each link's stats *)
let run_drain_scenario sc =
  let e = Engine.create ~seed:sc.ds_seed () in
  let arrivals = ref [] in
  let links =
    Array.init sc.ds_links (fun i ->
        let l =
          Link.create e ~rate_bps:sc.ds_rate
            ~delay:(Time.span_ms sc.ds_delay_ms)
            ~loss:sc.ds_loss ~queue_capacity:sc.ds_qcap ()
        in
        Link.set_dst l (fun pkt ->
            arrivals := (Time.to_ns (Engine.now e), i, pkt.Packet.size) :: !arrivals);
        l)
  in
  List.iter
    (fun (ms, li, cls) ->
      ignore
        (Engine.at e
           (Time.of_ns (ms * 1_000_000))
           (fun () -> Link.send links.(li) (raw_packet ~size:(scenario_size cls) ()))))
    sc.ds_sends;
  (match sc.ds_kill with
  | None -> ()
  | Some (ms, li) ->
      ignore
        (Engine.at e
           (Time.of_ns (ms * 1_000_000))
           (fun () -> Link.set_up links.(li) false)));
  Engine.run e;
  (List.rev !arrivals, Array.map Link.stats links)

type model_link = {
  m_sent : int;
  m_refused : int;  (** sends dropped on a full queue or a downed link *)
  m_killed : int;  (** accepted packets the cable pull caught in flight *)
}

(* The model's arrival log (every accepted packet the cable pull spares,
   in delivery order) and per-link counts. *)
let model_drain_scenario sc =
  let rate_ns = int_of_float sc.ds_rate in
  let delay = sc.ds_delay_ms * 1_000_000 in
  let model_link li =
    let kill =
      match sc.ds_kill with
      | Some (ms, l) when l = li -> Some (ms * 1_000_000)
      | _ -> None
    in
    (* dispatch order: by instant, then scheduling (list) order *)
    let sends =
      List.stable_sort
        (fun (a, _) (b, _) -> Int.compare a b)
        (List.filter_map
           (fun (ms, l, cls) ->
             if l = li then Some (ms * 1_000_000, scenario_size cls) else None)
           sc.ds_sends)
    in
    let busy = ref 0 and tx_ends = ref [] and serial = ref 0 in
    let refused = ref 0 and killed = ref 0 and arrivals = ref [] in
    List.iter
      (fun (sent_at, size) ->
        incr serial;
        let down = match kill with Some k -> k < sent_at | None -> false in
        let queued = List.length (List.filter (fun e -> e > sent_at) !tx_ends) in
        if down || queued >= sc.ds_qcap then incr refused
        else begin
          let bits_ns = size * 8 * 1_000_000_000 in
          if bits_ns mod rate_ns <> 0 then
            Alcotest.failf "model: 8·%d/%g s is not a whole ns" size sc.ds_rate;
          let tx_end = max sent_at !busy + (bits_ns / rate_ns) in
          busy := tx_end;
          tx_ends := tx_end :: !tx_ends;
          let at = tx_end + delay in
          match kill with
          | Some k when at >= k -> incr killed
          | _ -> arrivals := ((at, sent_at, li, !serial), size) :: !arrivals
        end)
      sends;
    ({ m_sent = !serial; m_refused = !refused; m_killed = !killed }, !arrivals)
  in
  let per_link = List.init sc.ds_links model_link in
  let log =
    List.concat_map snd per_link
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map (fun ((at, _, li, _), size) -> (at, li, size))
  in
  (log, Array.of_list (List.map fst per_link))

(* [sub] is [l] with some entries removed, order kept *)
let rec is_subsequence sub l =
  match (sub, l) with
  | [], _ -> true
  | _, [] -> false
  | x :: sub', y :: l' -> if x = y then is_subsequence sub' l' else is_subsequence sub l'

let prop_link_matches_fifo_model =
  QCheck.Test.make ~count:60 ~name:"arrivals match a drop-tail FIFO model"
    arb_drain_scenario (fun sc ->
      let arrivals, stats = run_drain_scenario sc in
      let model, links = model_drain_scenario sc in
      let conserved i st =
        st.Link.sent = links.(i).m_sent
        && st.Link.sent = st.Link.delivered + st.Link.lost + st.Link.dropped
      in
      Array.for_all Fun.id (Array.mapi conserved stats)
      &&
      if sc.ds_loss = 0.0 then
        arrivals = model
        && Array.for_all Fun.id
             (Array.mapi
                (fun i st ->
                  st.Link.lost = 0
                  && st.Link.dropped = links.(i).m_refused + links.(i).m_killed
                  && st.Link.delivered
                     = List.length (List.filter (fun (_, l, _) -> l = i) model))
                stats)
      else
        is_subsequence arrivals model
        && Array.for_all Fun.id
             (Array.mapi
                (fun i st ->
                  (* a killed packet counts dropped unless it was lost *)
                  st.Link.dropped >= links.(i).m_refused
                  && st.Link.dropped <= links.(i).m_refused + links.(i).m_killed)
                stats))

let test_mid_drain_kill () =
  let e = Engine.create ~seed:11 () in
  let link = Link.create e ~rate_bps:8e6 ~delay:(Time.span_ms 10) () in
  let arrivals = ref [] in
  Link.set_dst link (fun _ -> arrivals := Time.to_ns (Engine.now e) :: !arrivals);
  (* six queued 1 ms transmissions would deliver at 11..16 ms; the cable
     is pulled at exactly 13 ms — the same instant as the third delivery,
     whose event is already scheduled *)
  for _ = 1 to 6 do
    Link.send link (raw_packet ())
  done;
  ignore (Engine.at e (Time.of_ns 13_000_000) (fun () -> Link.set_up link false));
  Engine.run e;
  let st = Link.stats link in
  Alcotest.check (Alcotest.list Alcotest.int) "arrivals before the pull"
    [ 11_000_000; 12_000_000 ] (List.rev !arrivals);
  checki "delivered" 2 st.Link.delivered;
  checki "dropped in flight, the 13 ms one included" 4 st.Link.dropped

(* --- Host ---------------------------------------------------------------------- *)

let test_host_routes_by_source () =
  let e = Engine.create () in
  let p = Topology.parallel_paths e ~n:2 () in
  let got = ref [] in
  Host.set_receive p.Topology.server (fun pkt ->
      got := Ip.to_string pkt.Packet.flow.Ip.dst.Ip.addr :: !got);
  let send i =
    let path = List.nth p.Topology.paths i in
    Host.send p.Topology.client
      (Packet.make
         ~flow:
           (Ip.flow
              ~src:(Ip.endpoint path.Topology.client_addr 1000)
              ~dst:(Ip.endpoint path.Topology.server_addr 80))
         ~size:100 (Packet.Raw "hi"))
  in
  send 0;
  send 1;
  Engine.run e;
  Alcotest.(check (list string)) "both paths used" [ "10.0.0.2"; "10.0.1.2" ]
    (List.sort String.compare !got)

let test_host_nic_down_blackholes () =
  let e = Engine.create () in
  let p = Topology.parallel_paths e ~n:1 () in
  let count = ref 0 in
  Host.set_receive p.Topology.server (fun _ -> incr count);
  let nic = List.hd (Host.nics p.Topology.client) in
  Host.set_nic_up nic false;
  let path = List.hd p.Topology.paths in
  Host.send p.Topology.client
    (Packet.make
       ~flow:
         (Ip.flow
            ~src:(Ip.endpoint path.Topology.client_addr 1000)
            ~dst:(Ip.endpoint path.Topology.server_addr 80))
       ~size:100 (Packet.Raw "hi"));
  Engine.run e;
  checki "dropped" 0 !count

let test_host_addr_change_events () =
  let e = Engine.create () in
  let host = Host.create e in
  let nic = Host.add_nic host ~name:"eth0" ~addr:(Ip.v4 192 168 0 1) in
  let events = ref [] in
  Host.on_addr_change host (fun n dir ->
      events := (Host.nic_name n, dir) :: !events);
  Host.set_nic_up nic false;
  Host.set_nic_up nic false (* no duplicate event *);
  Host.set_nic_up nic true;
  Alcotest.(check int) "two events" 2 (List.length !events);
  match List.rev !events with
  | [ (n1, `Down); (n2, `Up) ] ->
      checks "down first" "eth0" n1;
      checks "then up" "eth0" n2
  | _ -> Alcotest.fail "unexpected event sequence"

let test_host_duplicate_addr_rejected () =
  let e = Engine.create () in
  let host = Host.create e in
  let _ = Host.add_nic host ~name:"eth0" ~addr:(Ip.v4 192 168 0 1) in
  Alcotest.check_raises "duplicate"
    (Invalid_argument "Host.add_nic: duplicate address 192.168.0.1") (fun () ->
      ignore (Host.add_nic host ~name:"eth1" ~addr:(Ip.v4 192 168 0 1)))

(* --- Router / ECMP --------------------------------------------------------------- *)

let test_ecmp_deterministic_per_flow () =
  let e = Engine.create () in
  let f = Topology.ecmp_fabric e ~n:4 () in
  let flow = mk_flow 1234 80 in
  let i1 = Router.ecmp_index f.Topology.r1 flow 4 in
  let i2 = Router.ecmp_index f.Topology.r1 flow 4 in
  checki "stable" i1 i2;
  checki "reverse same path" i1 (Router.ecmp_index f.Topology.r1 (Ip.reverse flow) 4)

let test_ecmp_spreads_flows () =
  let e = Engine.create () in
  let f = Topology.ecmp_fabric e ~n:4 () in
  let used = Array.make 4 0 in
  for port = 1000 to 1199 do
    let flow = mk_flow port 80 in
    let i = Router.ecmp_index f.Topology.r1 flow 4 in
    used.(i) <- used.(i) + 1
  done;
  Array.iteri
    (fun i n -> checkb (Printf.sprintf "path %d used" i) true (n > 20))
    used

let test_ecmp_forwarding_end_to_end () =
  let e = Engine.create () in
  let f = Topology.ecmp_fabric e ~n:4 () in
  let got = ref 0 in
  Host.set_receive f.Topology.server (fun _ -> incr got);
  let client_addr = List.hd (Host.addresses f.Topology.client) in
  let server_addr = List.hd (Host.addresses f.Topology.server) in
  for port = 2000 to 2009 do
    Host.send f.Topology.client
      (Packet.make
         ~flow:(Ip.flow ~src:(Ip.endpoint client_addr port) ~dst:(Ip.endpoint server_addr 80))
         ~size:500 (Packet.Raw "payload"))
  done;
  Engine.run e;
  checki "all forwarded" 10 !got

let test_router_icmp_unreachable () =
  let e = Engine.create () in
  let f = Topology.ecmp_fabric e ~n:2 () in
  (* cut both core paths: router should return ICMP unreachable *)
  List.iter (fun c -> Topology.set_duplex_up c false) f.Topology.core;
  let icmp = ref None in
  Host.set_receive f.Topology.client (fun pkt ->
      match pkt.Packet.payload with
      | Packet.Icmp_unreachable orig -> icmp := Some orig
      | _ -> ());
  let client_addr = List.hd (Host.addresses f.Topology.client) in
  let server_addr = List.hd (Host.addresses f.Topology.server) in
  let flow =
    Ip.flow ~src:(Ip.endpoint client_addr 5555) ~dst:(Ip.endpoint server_addr 80)
  in
  Host.send f.Topology.client (Packet.make ~flow ~size:500 (Packet.Raw "payload"));
  Engine.run e;
  match !icmp with
  | Some orig -> checkb "original flow" true (Ip.equal_flow orig flow)
  | None -> Alcotest.fail "no ICMP received"

(* --- Netem ---------------------------------------------------------------------- *)

let test_netem_loss_at () =
  let e = Engine.create () in
  let p = Topology.parallel_paths e ~n:1 () in
  let path = List.hd p.Topology.paths in
  Netem.loss_at e (Time.of_ns 1_000_000) path.Topology.cable 0.5;
  Alcotest.(check (float 0.001)) "before" 0.0 (Link.loss path.Topology.cable.Topology.fwd);
  Engine.run e;
  Alcotest.(check (float 0.001)) "after" 0.5 (Link.loss path.Topology.cable.Topology.fwd)

let test_netem_flap () =
  let e = Engine.create () in
  let host = Host.create e in
  let nic = Host.add_nic host ~name:"eth0" ~addr:(Ip.v4 192 168 0 1) in
  Netem.flap_nic e nic
    ~down_at:(Time.of_ns 1_000_000)
    ~up_at:(Time.of_ns 2_000_000);
  Engine.run_until e (Time.of_ns 1_500_000);
  checkb "down" false (Host.nic_up nic);
  Engine.run e;
  checkb "up again" true (Host.nic_up nic)

let test_netem_flap_every () =
  let e = Engine.create () in
  let host = Host.create e in
  let nic = Host.add_nic host ~name:"eth0" ~addr:(Ip.v4 192 168 0 1) in
  Netem.flap_nic_every e nic ~first_down:(Time.of_ns 5_000_000)
    ~down_for:(Time.span_ms 2) ~period:(Time.span_ms 10) ~count:2 ();
  Engine.run_until e (Time.of_ns 6_000_000);
  checkb "cycle 1: down" false (Host.nic_up nic);
  Engine.run_until e (Time.of_ns 8_000_000);
  checkb "cycle 1: recovered" true (Host.nic_up nic);
  Engine.run_until e (Time.of_ns 16_000_000);
  checkb "cycle 2: down" false (Host.nic_up nic);
  Engine.run_until e (Time.of_ns 18_000_000);
  checkb "cycle 2: recovered" true (Host.nic_up nic);
  (* count=2: no third cycle *)
  Engine.run e;
  checkb "stays up" true (Host.nic_up nic)

(* --- Linkmodel ------------------------------------------------------------------ *)

let one_cable seed =
  let e = Engine.create ~seed () in
  let p = Topology.parallel_paths e ~n:1 () in
  (e, (List.hd p.Topology.paths).Topology.cable)

let test_linkmodel_play () =
  let e, cable = one_cable 1 in
  ignore
    (Linkmodel.play e cable
       [
         Linkmodel.segment ~rate_bps:5e6 ~hold:(Time.span_ms 10) ();
         Linkmodel.segment ~rate_bps:1e6 ~loss:0.2 ~hold:(Time.span_ms 10) ();
       ]);
  Engine.run_until e (Time.of_ns 5_000_000);
  Alcotest.(check (float 1e-6)) "segment 1 rate" 5e6 (Link.rate_bps cable.Topology.fwd);
  Alcotest.(check (float 1e-6)) "segment 1 loss untouched" 0.0
    (Link.loss cable.Topology.fwd);
  Engine.run_until e (Time.of_ns 15_000_000);
  Alcotest.(check (float 1e-6)) "segment 2 rate" 1e6 (Link.rate_bps cable.Topology.fwd);
  Alcotest.(check (float 1e-6)) "segment 2 loss" 0.2 (Link.loss cable.Topology.back);
  Engine.run e;
  (* trace over (no repeat): last values stick *)
  Alcotest.(check (float 1e-6)) "final rate" 1e6 (Link.rate_bps cable.Topology.fwd)

let test_linkmodel_play_repeat () =
  let e, cable = one_cable 1 in
  let h =
    Linkmodel.play e ~repeat:true cable
      [
        Linkmodel.segment ~rate_bps:5e6 ~hold:(Time.span_ms 10) ();
        Linkmodel.segment ~rate_bps:1e6 ~hold:(Time.span_ms 10) ();
      ]
  in
  Engine.run_until e (Time.of_ns 25_000_000);
  Alcotest.(check (float 1e-6)) "looped back to segment 1" 5e6
    (Link.rate_bps cable.Topology.fwd);
  Linkmodel.stop h;
  Engine.run_until e (Time.of_ns 60_000_000);
  Alcotest.(check (float 1e-6)) "stopped: value frozen" 5e6
    (Link.rate_bps cable.Topology.fwd)

let ge_samples seed =
  let e, cable = one_cable seed in
  let ge =
    { Linkmodel.p_good_to_bad = 0.3; ge_step = Time.span_ms 10 }
  in
  ignore (Linkmodel.burst_loss e [ cable ] ge);
  let samples = ref [] in
  ignore
    (Engine.every e (Time.span_ms 10) (fun () ->
         samples := Link.loss cable.Topology.fwd :: !samples;
         `Continue));
  Engine.run_until e (Time.add Time.zero (Time.span_s 1));
  List.rev !samples

let test_linkmodel_ge_deterministic () =
  let a = ge_samples 9 and b = ge_samples 9 in
  checkb "same seed, same loss history" true (a = b);
  checkb "visits the Bad state" true
    (List.exists (fun l -> l > 0.39 && l < 0.41) a);
  checkb "visits the Good state" true (List.exists (fun l -> l < 0.01) a)

let test_linkmodel_ge_correlated () =
  let e = Engine.create ~seed:9 () in
  let p = Topology.parallel_paths e ~n:2 () in
  let c0 = (List.nth p.Topology.paths 0).Topology.cable
  and c1 = (List.nth p.Topology.paths 1).Topology.cable in
  let ge =
    { Linkmodel.p_good_to_bad = 0.3; ge_step = Time.span_ms 10 }
  in
  ignore (Linkmodel.burst_loss e [ c0; c1 ] ge);
  ignore
    (Engine.every e (Time.span_ms 10) (fun () ->
         checkb "one chain drives both cables" true
           (Link.loss c0.Topology.fwd = Link.loss c1.Topology.fwd
           && Link.loss c0.Topology.back = Link.loss c1.Topology.back);
         `Continue));
  Engine.run_until e (Time.add Time.zero (Time.span_s 1))

let test_linkmodel_wifi_deterministic () =
  let samples seed =
    let e, cable = one_cable seed in
    ignore (Linkmodel.wifi e cable);
    let out = ref [] in
    ignore
      (Engine.every e (Time.span_ms 100) (fun () ->
           out := Link.rate_bps cable.Topology.fwd :: !out;
           `Continue));
    Engine.run_until e (Time.add Time.zero (Time.span_s 3));
    List.rev !out
  in
  let a = samples 11 in
  checkb "same seed, same trajectory" true (a = samples 11);
  List.iter
    (fun r -> checkb "rate within the MCS ladder" true (r >= 6.5e6 && r <= 65e6))
    a;
  checkb "rate actually varies" true (List.length (List.sort_uniq compare a) > 1)

let test_linkmodel_mobility () =
  let e = Engine.create () in
  let host = Host.create e in
  let nic0 = Host.add_nic host ~name:"wlan0" ~addr:(Ip.v4 10 0 0 1) in
  let nic1 = Host.add_nic host ~name:"lte0" ~addr:(Ip.v4 10 0 1 1) in
  let m =
    Linkmodel.Mobility.start e ~nics:[ nic0; nic1 ]
      {
        Linkmodel.Mobility.first_handover = Time.span_ms 10;
        ho_period = Time.span_ms 20;
        break_for = Time.span_ms 5;
        max_handovers = Some 3;
      }
  in
  checkb "starts on nic0" true (Host.nic_up nic0);
  checkb "nic1 parked" false (Host.nic_up nic1);
  Engine.run_until e (Time.of_ns 12_000_000);
  checkb "break-before-make: nic0 down" false (Host.nic_up nic0);
  checkb "break-before-make: nic1 not yet up" false (Host.nic_up nic1);
  Engine.run_until e (Time.of_ns 16_000_000);
  checkb "nic1 took over" true (Host.nic_up nic1);
  checkb "nic0 still down" false (Host.nic_up nic0);
  Engine.run_until e (Time.of_ns 36_000_000);
  checkb "handover 2: back on nic0" true (Host.nic_up nic0);
  checkb "handover 2: nic1 down again" false (Host.nic_up nic1);
  Engine.run e;
  checki "three handovers executed" 3 (Linkmodel.Mobility.handovers m)

let () =
  Alcotest.run "netsim"
    [
      ( "ip",
        [
          Alcotest.test_case "roundtrip" `Quick test_ip_roundtrip;
          Alcotest.test_case "bad input" `Quick test_ip_bad_input;
          Alcotest.test_case "flow hash symmetric" `Quick test_flow_hash_symmetric;
          Alcotest.test_case "flow hash salt" `Quick test_flow_hash_salt_sensitivity;
        ]
        @ List.map QCheck_alcotest.to_alcotest flow_hash_props );
      ( "link",
        [
          Alcotest.test_case "delay and rate" `Quick test_link_delay_and_rate;
          Alcotest.test_case "serialization" `Quick test_link_serialization;
          Alcotest.test_case "queue overflow" `Quick test_link_queue_overflow;
          Alcotest.test_case "loss rate" `Quick test_link_loss_rate;
          Alcotest.test_case "down drops" `Quick test_link_down_drops;
          Alcotest.test_case "down kills in flight" `Quick
            test_link_down_kills_in_flight;
          Alcotest.test_case "re-up does not resurrect" `Quick
            test_link_up_again_does_not_resurrect;
          Alcotest.test_case "same-instant slot" `Quick test_link_same_instant_slot;
          Alcotest.test_case "delay cut reorders" `Quick test_link_delay_cut_reorders;
        ] );
      ( "link oracle",
        [
          QCheck_alcotest.to_alcotest ~long:false prop_link_matches_fifo_model;
          Alcotest.test_case "mid-drain kill" `Quick test_mid_drain_kill;
        ] );
      ( "host",
        [
          Alcotest.test_case "routes by source" `Quick test_host_routes_by_source;
          Alcotest.test_case "nic down blackholes" `Quick test_host_nic_down_blackholes;
          Alcotest.test_case "addr change events" `Quick test_host_addr_change_events;
          Alcotest.test_case "duplicate addr" `Quick test_host_duplicate_addr_rejected;
        ] );
      ( "router",
        [
          Alcotest.test_case "ecmp deterministic" `Quick test_ecmp_deterministic_per_flow;
          Alcotest.test_case "ecmp spreads" `Quick test_ecmp_spreads_flows;
          Alcotest.test_case "ecmp end-to-end" `Quick test_ecmp_forwarding_end_to_end;
          Alcotest.test_case "icmp unreachable" `Quick test_router_icmp_unreachable;
        ] );
      ( "netem",
        [
          Alcotest.test_case "loss at" `Quick test_netem_loss_at;
          Alcotest.test_case "nic flap" `Quick test_netem_flap;
          Alcotest.test_case "periodic flap" `Quick test_netem_flap_every;
        ] );
      ( "linkmodel",
        [
          Alcotest.test_case "trace playback" `Quick test_linkmodel_play;
          Alcotest.test_case "trace repeat and stop" `Quick
            test_linkmodel_play_repeat;
          Alcotest.test_case "gilbert-elliott deterministic" `Quick
            test_linkmodel_ge_deterministic;
          Alcotest.test_case "gilbert-elliott correlated" `Quick
            test_linkmodel_ge_correlated;
          Alcotest.test_case "wifi deterministic" `Quick
            test_linkmodel_wifi_deterministic;
          Alcotest.test_case "mobility handover" `Quick test_linkmodel_mobility;
        ] );
    ]
