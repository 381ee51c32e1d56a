(* End-to-end and unit tests for the TCP substrate. *)

open Smapp_sim
open Smapp_netsim
open Smapp_tcp

let check = Alcotest.check
let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- Seq32 ----------------------------------------------------------------- *)

let test_seq32_wrap () =
  let near_max = Seq32.of_int 0xFFFF_FFFF in
  let wrapped = Seq32.add near_max 10 in
  checki "wraps" 9 (Seq32.to_int wrapped);
  checki "diff across wrap" 10 (Seq32.diff wrapped near_max);
  checkb "lt across wrap" true (Seq32.lt near_max wrapped)

let seq32_props =
  let gen = QCheck.Gen.(map (fun n -> n land 0xFFFF_FFFF) (int_bound max_int)) in
  let arb = QCheck.make ~print:string_of_int gen in
  [
    QCheck.Test.make ~name:"seq32 add/diff roundtrip" ~count:500
      (QCheck.pair arb (QCheck.int_range (-1_000_000) 1_000_000))
      (fun (a, d) ->
        let s = Seq32.of_int a in
        Seq32.diff (Seq32.add s d) s = d);
    QCheck.Test.make ~name:"seq32 ordering antisymmetric" ~count:500
      (QCheck.pair arb (QCheck.int_range 1 1_000_000))
      (fun (a, d) ->
        let s = Seq32.of_int a in
        let s' = Seq32.add s d in
        Seq32.lt s s' && Seq32.gt s' s && not (Seq32.lt s' s));
  ]

(* --- Rtt / RFC 6298 --------------------------------------------------------- *)

let test_rtt_first_sample () =
  let rtt = Rtt.create () in
  Alcotest.(check bool) "no srtt yet" true (Rtt.srtt rtt = None);
  check Alcotest.int64 "initial rto is 1s" 1_000_000_000L
    (Int64.of_int (Time.span_to_ns (Rtt.rto rtt)));
  Rtt.sample rtt (Time.span_ms 100);
  (match Rtt.srtt rtt with
  | Some s -> checki "srtt = first sample" 100_000_000 (Time.span_to_ns s)
  | None -> Alcotest.fail "srtt unset");
  (* rto = srtt + 4*rttvar = 100 + 4*50 = 300ms *)
  checki "rto after first sample" 300_000_000 (Time.span_to_ns (Rtt.rto rtt))

let test_rtt_min_clamp () =
  let rtt = Rtt.create () in
  Rtt.sample rtt (Time.span_us 100);
  (* tiny RTT: rto clamps to min_rto 200ms *)
  checki "min clamp" 200_000_000 (Time.span_to_ns (Rtt.rto rtt))

let test_rtt_backoff_cap () =
  let rtt = Rtt.create () in
  Rtt.sample rtt (Time.span_ms 100);
  let base = Rtt.rto rtt in
  let b1 = Rtt.backoff base 1 in
  checki "one doubling" (2 * Time.span_to_ns base) (Time.span_to_ns b1);
  let b20 = Rtt.backoff base 20 in
  checki "cap at 120s" (Time.span_to_ns (Time.span_s 120)) (Time.span_to_ns b20)

let test_rtt_ewma () =
  let rtt = Rtt.create () in
  Rtt.sample rtt (Time.span_ms 100);
  Rtt.sample rtt (Time.span_ms 200);
  (* srtt = 7/8*100 + 1/8*200 = 112.5ms *)
  (match Rtt.srtt rtt with
  | Some s -> checki "ewma srtt" 112_500_000 (Time.span_to_ns s)
  | None -> Alcotest.fail "srtt unset")

(* --- Cc ---------------------------------------------------------------------- *)

let test_cc_slow_start () =
  let cc = Cc.create ~mss:1000 () in
  checki "iw10" 10_000 (Cc.cwnd cc);
  checkb "in slow start" true (Cc.in_slow_start cc);
  Cc.on_ack cc ~acked:1000;
  checki "cwnd grows by acked" 11_000 (Cc.cwnd cc)

let test_cc_rto_collapse () =
  let cc = Cc.create ~mss:1000 () in
  Cc.on_rto cc;
  checki "cwnd back to 1 mss" 1000 (Cc.cwnd cc);
  checki "ssthresh halved" 5000 (Cc.ssthresh cc)

let test_cc_fast_retransmit () =
  let cc = Cc.create ~mss:1000 () in
  Cc.on_retransmit_loss cc;
  checki "cwnd halved" 5000 (Cc.cwnd cc);
  checkb "left slow start" false (Cc.in_slow_start cc)

let test_cc_congestion_avoidance () =
  let cc = Cc.create ~mss:1000 () in
  Cc.on_retransmit_loss cc;
  let w0 = Cc.cwnd cc in
  (* a full window of acks grows cwnd by about one mss *)
  let rec ack_window remaining =
    if remaining > 0 then begin
      Cc.on_ack cc ~acked:1000;
      ack_window (remaining - 1000)
    end
  in
  ack_window w0;
  let grown = Cc.cwnd cc - w0 in
  checkb "CA growth about one mss" true (grown >= 900 && grown <= 1100)

let test_cc_lia_single_subflow_is_reno () =
  let lia = Cc.create ~algo:Cc.Lia ~mss:1000 () in
  let reno = Cc.create ~algo:Cc.Reno ~mss:1000 () in
  Cc.on_retransmit_loss lia;
  Cc.on_retransmit_loss reno;
  (* the only sibling is itself *)
  let g = Cc.group () in
  Cc.join g lia;
  Cc.set_established lia true;
  Cc.set_srtt_ns lia 100_000_000;
  Cc.on_ack lia ~acked:1000;
  Cc.on_ack reno ~acked:1000;
  checki "same growth" (Cc.cwnd reno) (Cc.cwnd lia)

let test_cc_lia_couples_down () =
  (* with two equal siblings LIA grows slower than Reno *)
  let lia = Cc.create ~algo:Cc.Lia ~mss:1000 () in
  let reno = Cc.create ~algo:Cc.Reno ~mss:1000 () in
  Cc.on_retransmit_loss lia;
  Cc.on_retransmit_loss reno;
  (* a second sibling with lia's window and RTT *)
  let twin = Cc.create ~algo:Cc.Lia ~mss:1000 () in
  Cc.on_retransmit_loss twin;
  let g = Cc.group () in
  List.iter
    (fun cc ->
      Cc.join g cc;
      Cc.set_established cc true;
      Cc.set_srtt_ns cc 100_000_000)
    [ lia; twin ];
  let lia0 = Cc.cwnd lia and reno0 = Cc.cwnd reno in
  for _ = 1 to 10 do
    Cc.on_ack lia ~acked:1000;
    Cc.on_ack reno ~acked:1000
  done;
  checkb "lia grew" true (Cc.cwnd lia > lia0);
  checkb "lia slower than reno" true (Cc.cwnd lia - lia0 < Cc.cwnd reno - reno0)

(* --- Reasm ------------------------------------------------------------------- *)

(* A pop as an option of (dsn, len), and the ranges as (start, len). *)
let reasm_ranges r = List.init (Reasm.count r) (fun i -> (Reasm.range_start r i, Reasm.range_len r i))

let reasm_pop r ~rcv_nxt =
  match Reasm.pop_ready r ~rcv_nxt with 0 -> None | len -> Some (Reasm.popped_dsn r, len)

let test_reasm_in_order () =
  let r = Reasm.create () in
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  (match reasm_pop r ~rcv_nxt:1 with
  | Some (dsn, len) ->
      checki "dsn" 100 dsn;
      checki "len" 10 len
  | None -> Alcotest.fail "expected ready data");
  checkb "drained" true (reasm_pop r ~rcv_nxt:11 = None)

let test_reasm_out_of_order () =
  let r = Reasm.create () in
  Reasm.insert r ~seq:11 ~len:10 ~dsn:110;
  checkb "hole blocks" true (reasm_pop r ~rcv_nxt:1 = None);
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  (* contiguous in both spaces: the ranges coalesce and pop as one *)
  (match reasm_pop r ~rcv_nxt:1 with
  | Some (dsn, len) ->
      checki "merged dsn" 100 dsn;
      checki "merged len" 20 len
  | None -> Alcotest.fail "hole should be filled");
  checkb "drained" true (reasm_pop r ~rcv_nxt:21 = None)

let test_reasm_no_merge_across_streams () =
  (* adjacent in sequence space but not in stream space: kept apart *)
  let r = Reasm.create () in
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  Reasm.insert r ~seq:11 ~len:10 ~dsn:500;
  (match reasm_pop r ~rcv_nxt:1 with
  | Some (dsn, len) ->
      checki "first dsn" 100 dsn;
      checki "first len" 10 len
  | None -> Alcotest.fail "first range missing");
  match reasm_pop r ~rcv_nxt:11 with
  | Some (dsn, len) ->
      checki "second dsn" 500 dsn;
      checki "second len" 10 len
  | None -> Alcotest.fail "second range missing"

let test_reasm_duplicate () =
  let r = Reasm.create () in
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  checki "no double buffering" 10 (Reasm.buffered_bytes r)

let test_reasm_overlap_trim () =
  let r = Reasm.create () in
  Reasm.insert r ~seq:5 ~len:10 ~dsn:104;
  Reasm.insert r ~seq:1 ~len:10 ~dsn:100;
  (* [1,15) total coverage = 14 bytes *)
  checki "coverage" 14 (Reasm.buffered_bytes r)

let reasm_props =
  (* deliver a shuffled sequence of segments: all bytes come out in order *)
  let test (seed, nseg) =
    let rng = Rng.of_int seed in
    let seg_len = 100 in
    let segs = Array.init nseg (fun i -> (1 + (i * seg_len), seg_len, 1000 + (i * seg_len))) in
    (* Fisher-Yates shuffle *)
    for i = nseg - 1 downto 1 do
      let j = Rng.int rng (i + 1) in
      let tmp = segs.(i) in
      segs.(i) <- segs.(j);
      segs.(j) <- tmp
    done;
    let r = Reasm.create () in
    let rcv_nxt = ref 1 in
    let received = ref [] in
    Array.iter
      (fun (seq, len, dsn) ->
        Reasm.insert r ~seq ~len ~dsn;
        let continue = ref true in
        while !continue do
          match reasm_pop r ~rcv_nxt:!rcv_nxt with
          | Some (d, l) ->
              received := (d, l) :: !received;
              rcv_nxt := !rcv_nxt + l
          | None -> continue := false
        done)
      segs;
    let total = List.fold_left (fun acc (_, l) -> acc + l) 0 !received in
    let in_order =
      let rec ok expected = function
        | [] -> true
        | (d, l) :: rest -> d = expected && ok (expected + l) rest
      in
      ok 1000 (List.rev !received)
    in
    total = nseg * seg_len && in_order && Reasm.buffered_bytes r = 0
  in
  [
    QCheck.Test.make ~name:"reasm delivers shuffled segments in order" ~count:100
      QCheck.(pair (int_range 0 10_000) (int_range 1 40))
      test;
  ]

(* --- Reasm against a per-byte model ------------------------------------------ *)

(* The model: byte [p] of a small sequence space is absent or buffered
   with stream offset [dsn.(p)]. An insert buffers each absent byte of its
   range, so the first writer of a byte wins. A range is a maximal run of
   buffered bytes whose stream offsets also run on by one; the head range
   pops whenever it starts at or before [rcv_nxt], yielding its bytes from
   [rcv_nxt] on, if any. *)
module Byte_model = struct
  type t = { have : bool array; dsn : int array }

  let create n = { have = Array.make n false; dsn = Array.make n 0 }

  let insert m ~seq ~len ~dsn =
    for k = 0 to len - 1 do
      if not m.have.(seq + k) then begin
        m.have.(seq + k) <- true;
        m.dsn.(seq + k) <- dsn + k
      end
    done

  let runs m =
    let n = Array.length m.have in
    let rec go p acc =
      if p >= n then List.rev acc
      else if not m.have.(p) then go (p + 1) acc
      else begin
        let e = ref (p + 1) in
        while !e < n && m.have.(!e) && m.dsn.(!e) = m.dsn.(!e - 1) + 1 do
          incr e
        done;
        go !e ((p, !e - p, m.dsn.(p)) :: acc)
      end
    in
    go 0 []

  let buffered m = Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 m.have

  let pop m ~rcv_nxt =
    match runs m with
    | (s, l, d) :: _ when s <= rcv_nxt ->
        Array.fill m.have s l false;
        let skip = rcv_nxt - s in
        if skip >= l then None else Some (d + skip, l - skip)
    | _ -> None
end

(* Random inserts over 64 bytes, each mapped at offset 0 or 100 so that
   neighbours sometimes continue each other's stream and sometimes do not,
   mixed with pops and jumps of [rcv_nxt] past buffered bytes (the stale
   head). After every step the set and the model agree on the ranges (the
   TCB's SACK blocks are the first three), the buffered count and every
   pop. *)
let reasm_model_prop =
  let universe = 64 in
  let op =
    QCheck.Gen.(
      quad (int_range 0 5) (int_range 0 (universe - 1)) (int_range 1 12) bool)
  in
  QCheck.Test.make ~name:"reasm agrees with the byte model" ~count:300
    (QCheck.make
       ~print:
         QCheck.Print.(list (quad int int int bool))
       QCheck.Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let r = Reasm.create () and m = Byte_model.create (universe + 16) in
      let rcv_nxt = ref 0 in
      let agree () =
        reasm_ranges r = List.map (fun (s, l, _) -> (s, l)) (Byte_model.runs m)
        && Reasm.buffered_bytes r = Byte_model.buffered m
      in
      let rec drain () =
        let got = reasm_pop r ~rcv_nxt:!rcv_nxt in
        let want = Byte_model.pop m ~rcv_nxt:!rcv_nxt in
        got = want
        && agree ()
        &&
        match got with
        | Some (_, len) ->
            rcv_nxt := !rcv_nxt + len;
            drain ()
        | None -> true
      in
      List.for_all
        (fun (kind, seq, len, shifted) ->
          match kind with
          | 0 -> drain ()
          | 1 ->
              rcv_nxt := min (universe + 8) (!rcv_nxt + (len / 3));
              agree ()
          | _ ->
              let len = min len (universe - seq) in
              let dsn = seq + if shifted then 100 else 0 in
              Reasm.insert r ~seq ~len ~dsn;
              Byte_model.insert m ~seq ~len ~dsn;
              agree ())
        ops)

(* --- LIA against RFC 6356 §3 ----------------------------------------------- *)

(* Couple [subflows] as one connection does: one group, each controller
   told whether its TCB is established and its srtt once sampled. The
   test keeps its own copy of both, for the formula. *)
type lia_sub = { l_cc : Cc.t; mutable l_est : bool; mutable l_srtt_ns : int option }

let lia_couple subs =
  let g = Cc.group () in
  List.iter
    (fun s ->
      Cc.join g s.l_cc;
      Cc.set_established s.l_cc s.l_est;
      Cc.set_srtt_ns s.l_cc (Option.value s.l_srtt_ns ~default:(-1)))
    subs

let lia_set_established s b =
  s.l_est <- b;
  Cc.set_established s.l_cc b

let lia_unsample s =
  s.l_srtt_ns <- None;
  Cc.set_srtt_ns s.l_cc (-1)

(* A subflow in congestion avoidance at [window] bytes: IW of twice the
   window, halved by a loss. *)
let lia_sub ~window ~rtt_ms =
  let cc = Cc.create ~algo:Cc.Lia ~initial_window:(2 * window / 1000) ~mss:1000 () in
  Cc.on_retransmit_loss cc;
  { l_cc = cc; l_est = true; l_srtt_ns = Some (rtt_ms * 1_000_000) }

(* RFC 6356 §3, evaluated here: over the subflows with an RTT sample,
   alpha = total * max(w_i / rtt_i^2) / (sum w_i / rtt_i)^2; an ack of
   [acked] bytes on subflow [i] grows w_i by
   min(alpha * acked * MSS / total, acked * MSS / w_i), where the
   increase's [total] is over every established subflow. One subflow with
   a sample: Reno. *)
let rfc6356_increase subs (me : lia_sub) ~acked =
  let live = List.filter (fun s -> s.l_est) subs in
  let w s = float_of_int (Cc.cwnd s.l_cc) in
  let sampled =
    List.filter_map
      (fun s -> Option.map (fun ns -> (w s, float_of_int ns /. 1e9)) s.l_srtt_ns)
      live
  in
  let reno = float_of_int acked *. 1000. /. w me in
  match sampled with
  | [] | [ _ ] -> reno
  | _ ->
      let sum f = List.fold_left (fun acc x -> acc +. f x) 0. sampled in
      let best =
        List.fold_left (fun acc (wi, ri) -> Float.max acc (wi /. (ri *. ri))) 0. sampled
      in
      let denom = sum (fun (wi, ri) -> wi /. ri) in
      let alpha = sum fst *. best /. (denom *. denom) in
      let total = List.fold_left (fun acc s -> acc +. w s) 0. live in
      Float.min (alpha *. float_of_int acked *. 1000. /. total) reno

let test_cc_lia_rfc6356 () =
  let mk () =
    let a = lia_sub ~window:20_000 ~rtt_ms:10 in
    let b = lia_sub ~window:30_000 ~rtt_ms:20 in
    let c = lia_sub ~window:40_000 ~rtt_ms:40 in
    let subs = [ a; b; c ] in
    lia_couple subs;
    (a, b, c, subs)
  in
  (* worked by hand: alpha = 0.8889, so the first subflow grows 9.877 B *)
  let a, _, _, subs = mk () in
  let inc = rfc6356_increase subs a ~acked:1000 in
  checkb (Printf.sprintf "formula gives 9.877 (%.4f)" inc) true (Float.abs (inc -. 9.87654) < 1e-4);
  let check_ack label subs s =
    let before = Cc.cwnd s.l_cc in
    let inc = rfc6356_increase subs s ~acked:1000 in
    Cc.on_ack s.l_cc ~acked:1000;
    checki label (int_of_float (float_of_int before +. inc)) (Cc.cwnd s.l_cc)
  in
  check_ack "first subflow grows by alpha's share" subs a;
  let _, b, c, subs = mk () in
  check_ack "second subflow" subs b;
  check_ack "third subflow" subs c;
  (* a sibling that leaves Established drops out of alpha and total *)
  let a, b, _, subs = mk () in
  lia_set_established b false;
  checkb "two live siblings still couple" true (rfc6356_increase subs a ~acked:1000 < 50.);
  check_ack "without the closed sibling" subs a;
  (* a sibling with no RTT sample drops out of alpha but not of total *)
  let a, b, _, subs = mk () in
  lia_unsample b;
  check_ack "without the unsampled sibling's rate" subs a;
  (* one live sibling: Reno's acked * MSS / cwnd *)
  let a, b, c, subs = mk () in
  lia_set_established b false;
  lia_set_established c false;
  check_ack "alone, Reno" subs a;
  checki "Reno's 50 B" 20_050 (Cc.cwnd a.l_cc)

(* --- end-to-end TCP over a direct link ---------------------------------------- *)

type transfer_result = {
  received : int;
  client_closed : Tcp_error.t option option;
  server_fin : bool;
  duration : float;
}

(* Client sends [total] bytes then closes; server counts delivered bytes.
   Returns after the simulation drains. *)
let run_transfer ?(config = Tcb.default_config) ?(rate = 10e6) ?(delay = Time.span_ms 10)
    ?(loss = 0.0) ?(seed = 7) ~total () =
  let engine = Engine.create ~seed () in
  let d =
    let open Topology in
    direct_link engine ~rate_bps:rate ~delay ()
  in
  Link.set_loss d.Topology.cable.Topology.fwd loss;
  Link.set_loss d.Topology.cable.Topology.back loss;
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  let received = ref 0 in
  let finished_at = ref nan in
  let server_fin = ref false in
  let server_cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_data =
        (fun _ ~dsn:_ ~len ->
          received := !received + len;
          if !received >= total then finished_at := Time.to_float_s (Engine.now engine));
      on_fin =
        (fun tcb ->
          server_fin := true;
          Tcb.close tcb);
    }
  in
  Plain_tcp.listen sstack ~port:80 ~config server_cbs;
  let sent = ref 0 in
  let client_closed = ref None in
  let client_cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established =
        (fun tcb ->
          let n = min total 65536 in
          sent := n;
          if n > 0 then Tcb.enqueue tcb ~dsn:0 ~len:n
          else Tcb.close tcb);
      on_can_send =
        (fun tcb ->
          if !sent < total then begin
            let n = min (total - !sent) 65536 in
            Tcb.enqueue tcb ~dsn:!sent ~len:n;
            sent := !sent + n
          end
          else Tcb.close tcb);
      on_close = (fun _ err -> client_closed := Some err);
    }
  in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let _tcb =
    Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) ~config
      client_cbs
  in
  Engine.run_until engine (Time.of_ns (Time.span_to_ns (Time.span_s 600)));
  {
    received = !received;
    client_closed = !client_closed;
    server_fin = !server_fin;
    duration = !finished_at;
  }

let test_transfer_lossless () =
  let r = run_transfer ~total:1_000_000 () in
  checki "all bytes delivered" 1_000_000 r.received;
  checkb "server saw fin" true r.server_fin;
  (match r.client_closed with
  | Some None -> ()
  | Some (Some err) -> Alcotest.failf "client closed with %s" (Tcp_error.to_string err)
  | None -> Alcotest.fail "client never closed")

let test_transfer_zero_handshake_only () =
  let r = run_transfer ~total:0 () in
  checki "nothing delivered" 0 r.received;
  checkb "clean close" true (r.client_closed = Some None)

let test_transfer_lossy () =
  (* 5% loss both ways: TCP must still deliver everything, exactly once *)
  let r = run_transfer ~total:300_000 ~loss:0.05 ~seed:11 () in
  checki "all bytes delivered despite loss" 300_000 r.received

let test_transfer_heavy_loss () =
  let r = run_transfer ~total:50_000 ~loss:0.2 ~seed:3 () in
  checki "delivered at 20% loss" 50_000 r.received

let test_transfer_throughput_sane () =
  (* 10 Mbps link, 1 MB transfer: at least ~0.8s, at most a few seconds *)
  let r = run_transfer ~total:1_000_000 ~rate:10e6 () in
  checkb "duration sane" true (r.duration > 0.5 && r.duration < 10.0)

let test_connect_refused () =
  (* no listener: client SYN answered by RST -> ECONNREFUSED *)
  let engine = Engine.create () in
  let d = Topology.direct_link engine () in
  let cstack = Stack.attach d.Topology.client in
  let _sstack = Stack.attach d.Topology.server in
  let result = ref None in
  let cbs =
    { Tcb.null_callbacks with Tcb.on_close = (fun _ err -> result := Some err) }
  in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let _ = Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 81) cbs in
  Engine.run engine;
  match !result with
  | Some (Some Tcp_error.Econnrefused) -> ()
  | other ->
      Alcotest.failf "expected ECONNREFUSED, got %s"
        (match other with
        | None -> "no close"
        | Some None -> "clean close"
        | Some (Some e) -> Tcp_error.to_string e)

let test_blackhole_kills_after_backoffs () =
  (* cut the link mid-transfer: RTO backoffs then ETIMEDOUT *)
  let engine = Engine.create () in
  let d = Topology.direct_link engine ~rate_bps:10e6 ~delay:(Time.span_ms 5) () in
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  Plain_tcp.listen sstack ~port:80 Tcb.null_callbacks;
  let timeouts = ref 0 in
  let death = ref None in
  let config = { Tcb.default_config with Tcb.max_rto_backoffs = 5 } in
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:500_000);
      on_rto_event = (fun _ _ _ -> incr timeouts);
      on_close = (fun _ err -> death := Some err);
    }
  in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let _ =
    Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) ~config cbs
  in
  ignore
    (Engine.after engine (Time.span_ms 100) (fun () ->
         Topology.set_duplex_up d.Topology.cable false));
  Engine.run engine;
  checkb "several rto events" true (!timeouts >= 5);
  (match !death with
  | Some (Some Tcp_error.Etimedout) -> ()
  | _ -> Alcotest.fail "expected ETIMEDOUT kill")

let test_rto_backoff_doubles () =
  (* observe the rto values reported by successive timeout events *)
  let engine = Engine.create () in
  let d = Topology.direct_link engine ~rate_bps:10e6 ~delay:(Time.span_ms 5) () in
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  Plain_tcp.listen sstack ~port:80 Tcb.null_callbacks;
  let rtos = ref [] in
  let config = { Tcb.default_config with Tcb.max_rto_backoffs = 6 } in
  let cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.enqueue tcb ~dsn:0 ~len:100_000);
      on_rto_event = (fun _ rto _ -> rtos := Time.span_to_float_s rto :: !rtos);
    }
  in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let _ =
    Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) ~config cbs
  in
  ignore
    (Engine.after engine (Time.span_ms 50) (fun () ->
         Topology.set_duplex_up d.Topology.cable false));
  Engine.run engine;
  let rtos = List.rev !rtos in
  checkb "at least 4 rto events" true (List.length rtos >= 4);
  (* each reported rto roughly doubles the previous one *)
  let rec doubling = function
    | a :: b :: rest -> b >= (a *. 1.9) && doubling (b :: rest)
    | _ -> true
  in
  checkb "rtos double" true (doubling rtos)

let test_ephemeral_ports_distinct () =
  let engine = Engine.create () in
  let d = Topology.direct_link engine () in
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  Plain_tcp.listen sstack ~port:80 Tcb.null_callbacks;
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let ports =
    List.init 20 (fun _ ->
        let tcb =
          Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80)
            Tcb.null_callbacks
        in
        (Tcb.flow tcb).Ip.src.Ip.port)
  in
  let distinct = List.sort_uniq Int.compare ports in
  checki "20 distinct ephemeral ports" 20 (List.length distinct)

(* --- listener table semantics ------------------------------------------------- *)

let listen_harness () =
  let engine = Engine.create ~seed:11 () in
  let d = Topology.direct_link engine () in
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  (engine, cstack, sstack, client_addr, server_addr)

let test_listen_replaces_previous () =
  let engine, cstack, sstack, client_addr, server_addr = listen_harness () in
  let first_hits = ref 0 and second_hits = ref 0 in
  Stack.listen sstack ~port:80 (fun syn ->
      incr first_hits;
      ignore (Plain_tcp.accept sstack Tcb.null_callbacks syn));
  Stack.listen sstack ~port:80 (fun syn ->
      incr second_hits;
      ignore (Plain_tcp.accept sstack Tcb.null_callbacks syn));
  let established = ref false in
  let cbs =
    { Tcb.null_callbacks with Tcb.on_established = (fun _ -> established := true) }
  in
  let _ = Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) cbs in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 2));
  checkb "established" true !established;
  checki "replaced listener never consulted" 0 !first_hits;
  checki "new listener handles the syn" 1 !second_hits

(* --- half-close: sending must continue from CLOSE_WAIT ------------------------- *)

let test_send_continues_in_close_wait () =
  (* The server FINs as soon as the handshake completes, so the client's FIN
     and most of its queued data are still pending when it enters CLOSE_WAIT.
     Regression: pump once refused to transmit outside ESTABLISHED, so the
     transfer deadlocked with no timer armed. *)
  let engine = Engine.create ~seed:3 () in
  let d = Topology.direct_link engine ~rate_bps:10e6 ~delay:(Time.span_ms 10) () in
  let cstack = Stack.attach d.Topology.client in
  let sstack = Stack.attach d.Topology.server in
  let total = 300_000 in
  let received = ref 0 in
  let server_cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established = (fun tcb -> Tcb.close tcb);
      on_data = (fun _ ~dsn:_ ~len -> received := !received + len);
    }
  in
  Plain_tcp.listen sstack ~port:80 server_cbs;
  let client_closed = ref None in
  let client_state = ref Tcp_info.Closed in
  let client_cbs =
    {
      Tcb.null_callbacks with
      Tcb.on_established =
        (fun tcb ->
          Tcb.enqueue tcb ~dsn:0 ~len:total;
          Tcb.close tcb);
      on_fin = (fun tcb -> client_state := (Tcb.info tcb).Tcp_info.state);
      on_close = (fun _ err -> client_closed := Some err);
    }
  in
  let server_addr = List.hd (Host.addresses d.Topology.server) in
  let client_addr = List.hd (Host.addresses d.Topology.client) in
  let _ =
    Plain_tcp.connect cstack ~src:client_addr ~dst:(Ip.endpoint server_addr 80) client_cbs
  in
  Engine.run_until engine (Time.add Time.zero (Time.span_s 60));
  checkb "fin arrived before our own" true (!client_state = Tcp_info.Close_wait);
  checki "all bytes delivered from CLOSE_WAIT" total !received;
  match !client_closed with
  | Some None -> ()
  | Some (Some e) -> Alcotest.failf "client closed with %s" (Tcp_error.to_string e)
  | None -> Alcotest.fail "client deadlocked in CLOSE_WAIT"

(* --- the TCB table against a model ------------------------------------------ *)

(* Two stacks that both listen on port 80 open connections to each other
   (from an ephemeral or an explicit source port), and close or abort
   either end. After each step settles, [Stack.find] must resolve every end
   the model holds live to its own TCB and every end it holds gone to
   nothing, and [Stack.connect] on a live four-tuple must raise. *)
type tcb_op = Open of int * int option | Close of int * int | Abort of int * int

let show_tcb_op = function
  | Open (s, None) -> Printf.sprintf "open %d" s
  | Open (s, Some p) -> Printf.sprintf "open %d:%d" s p
  | Close (c, e) -> Printf.sprintf "close %d/%d" c e
  | Abort (c, e) -> Printf.sprintf "abort %d/%d" c e

let gen_tcb_ops =
  QCheck.Gen.(
    list_size (int_range 1 25)
      (frequency
         [
           (4, map2 (fun s p -> Open (s, p)) (int_bound 1) (opt (int_range 1000 1002)));
           (2, map2 (fun c e -> Close (c, e)) nat (int_bound 1));
           (1, map2 (fun c e -> Abort (c, e)) nat (int_bound 1));
         ]))

(* One connection of the model: its two ends as (stack, local flow, TCB),
   the opener's first, and which ends the application closed. *)
type model_conn = {
  ends : (int * Ip.flow * Tcb.t) array;
  closed : bool array;
  mutable gone : bool;
}

let prop_tcb_table =
  QCheck.Test.make ~name:"stack tables match a model of live four-tuples" ~count:60
    (QCheck.make ~print:(fun ops -> String.concat "; " (List.map show_tcb_op ops)) gen_tcb_ops)
    (fun ops ->
      let engine = Engine.create () in
      let d = Topology.direct_link engine () in
      let hosts = [| d.Topology.client; d.Topology.server |] in
      let stacks = Array.map Stack.attach hosts in
      let addrs = Array.map (fun h -> List.hd (Host.addresses h)) hosts in
      let accepted = ref None in
      Array.iter
        (fun st ->
          Stack.listen st ~port:80 (fun syn ->
              accepted := Some (Plain_tcp.accept st Tcb.null_callbacks syn)))
        stacks;
      let conns = ref [] in
      let settle () = Engine.run_until engine (Time.add (Engine.now engine) (Time.span_s 1)) in
      let live_flow s flow =
        List.exists
          (fun c ->
            (not c.gone) && Array.exists (fun (s', f, _) -> s' = s && Ip.equal_flow f flow) c.ends)
          !conns
      in
      let raises s (flow : Ip.flow) =
        match
          Plain_tcp.connect stacks.(s) ~src:flow.src.addr ~src_port:flow.src.port ~dst:flow.dst
            Tcb.null_callbacks
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      let nth c = List.nth_opt (List.rev !conns) (c mod max 1 (List.length !conns)) in
      let step = function
        | Open (s, port) ->
            let dst = Ip.endpoint addrs.(1 - s) 80 in
            let wanted = Option.map (fun p -> Ip.flow ~src:(Ip.endpoint addrs.(s) p) ~dst) port in
            if Option.fold ~none:false ~some:(live_flow s) wanted then
              (* the model holds that four-tuple: the open must be refused *)
              assert (raises s (Option.get wanted))
            else begin
              let tcb =
                Plain_tcp.connect stacks.(s) ~src:addrs.(s) ?src_port:port ~dst Tcb.null_callbacks
              in
              accepted := None;
              settle ();
              let peer = Option.get !accepted in
              conns :=
                {
                  ends = [| (s, Tcb.flow tcb, tcb); (1 - s, Tcb.flow peer, peer) |];
                  closed = [| false; false |];
                  gone = false;
                }
                :: !conns
            end
        | Close (c, e) -> (
            match nth c with
            | Some m when not m.gone ->
                let _, _, tcb = m.ends.(e) in
                Tcb.close tcb;
                m.closed.(e) <- true;
                settle ();
                (* a FIN each way, then TIME_WAIT's linger, end both *)
                if m.closed.(0) && m.closed.(1) then m.gone <- true
            | _ -> ())
        | Abort (c, e) -> (
            match nth c with
            | Some m when not m.gone ->
                let _, _, tcb = m.ends.(e) in
                Tcb.abort tcb;
                settle ();
                (* the RST kills the peer *)
                m.gone <- true
            | _ -> ())
      in
      let agrees op =
        List.iter
          (fun m ->
            Array.iter
              (fun (s, flow, tcb) ->
                let ok =
                  match Stack.find stacks.(s) flow with
                  | Some found when m.gone -> found != tcb && live_flow s flow (* reused *)
                  | Some found -> found == tcb && raises s flow
                  | None -> m.gone
                in
                if not ok then
                  QCheck.Test.fail_reportf "after %s: stack %d, %a (%s) is %s in the model"
                    (show_tcb_op op) s Ip.pp_flow flow
                    (Tcp_info.state_to_string (Tcb.info tcb).Tcp_info.state)
                    (if m.gone then "gone" else "live"))
              m.ends)
          !conns
      in
      List.iter
        (fun op ->
          step op;
          agrees op)
        ops;
      true)

let () =
  Alcotest.run "tcp"
    [
      ( "seq32",
        [
          Alcotest.test_case "wraparound" `Quick test_seq32_wrap;
        ]
        @ List.map QCheck_alcotest.to_alcotest seq32_props );
      ( "rtt",
        [
          Alcotest.test_case "first sample" `Quick test_rtt_first_sample;
          Alcotest.test_case "min clamp" `Quick test_rtt_min_clamp;
          Alcotest.test_case "backoff cap" `Quick test_rtt_backoff_cap;
          Alcotest.test_case "ewma" `Quick test_rtt_ewma;
        ] );
      ( "cc",
        [
          Alcotest.test_case "slow start" `Quick test_cc_slow_start;
          Alcotest.test_case "rto collapse" `Quick test_cc_rto_collapse;
          Alcotest.test_case "fast retransmit" `Quick test_cc_fast_retransmit;
          Alcotest.test_case "congestion avoidance" `Quick test_cc_congestion_avoidance;
          Alcotest.test_case "lia single = reno" `Quick test_cc_lia_single_subflow_is_reno;
          Alcotest.test_case "lia couples down" `Quick test_cc_lia_couples_down;
          Alcotest.test_case "lia matches rfc 6356" `Quick test_cc_lia_rfc6356;
        ] );
      ( "reasm",
        [
          Alcotest.test_case "in order" `Quick test_reasm_in_order;
          Alcotest.test_case "out of order" `Quick test_reasm_out_of_order;
          Alcotest.test_case "no merge across streams" `Quick test_reasm_no_merge_across_streams;
          Alcotest.test_case "duplicate" `Quick test_reasm_duplicate;
          Alcotest.test_case "overlap trim" `Quick test_reasm_overlap_trim;
        ]
        @ List.map QCheck_alcotest.to_alcotest (reasm_model_prop :: reasm_props) );
      ( "end-to-end",
        [
          Alcotest.test_case "lossless transfer" `Quick test_transfer_lossless;
          Alcotest.test_case "handshake only" `Quick test_transfer_zero_handshake_only;
          Alcotest.test_case "5% loss" `Quick test_transfer_lossy;
          Alcotest.test_case "20% loss" `Quick test_transfer_heavy_loss;
          Alcotest.test_case "throughput sane" `Quick test_transfer_throughput_sane;
          Alcotest.test_case "connection refused" `Quick test_connect_refused;
          Alcotest.test_case "blackhole -> ETIMEDOUT" `Quick test_blackhole_kills_after_backoffs;
          Alcotest.test_case "rto backoff doubles" `Quick test_rto_backoff_doubles;
          Alcotest.test_case "ephemeral ports distinct" `Quick test_ephemeral_ports_distinct;
          Alcotest.test_case "close_wait keeps sending" `Quick
            test_send_continues_in_close_wait;
        ] );
      ( "listeners",
        [
          Alcotest.test_case "listen replaces previous" `Quick test_listen_replaces_previous;
        ] );
      ("tcb table", [ QCheck_alcotest.to_alcotest ~long:false prop_tcb_table ]);
    ]
