open Smapp_sim
open Smapp_netsim

type config = {
  mss : int;
  rcv_window : int;
  cc_algo : Cc.algo;
  initial_cwnd_segments : int;
  max_rto_backoffs : int;
}

let default_config =
  {
    mss = 1400;
    rcv_window = 1 lsl 20;
    cc_algo = Cc.Reno;
    initial_cwnd_segments = 10;
    max_rto_backoffs = 15;
  }

(* SYN retransmissions before a handshake gives up, as Linux's tcp_syn_retries *)
let max_syn_retries = 6

(* A range of stream bytes the TCB holds: a chunk queued for transmission
   ([e_sent] bytes of it already left), or a transmitted range awaiting
   acknowledgement. Entries come from a domain-local pool, as {!Segment}'s
   slots do, and chain through their own [e_next], so queueing, sending
   and acknowledging a segment allocate nothing. *)
type entry = {
  mutable e_off : int;  (* in flight: unwrapped send offset of the first byte *)
  mutable e_len : int;  (* in flight: 0 for a bare FIN *)
  mutable e_dsn : int;
  mutable e_sent : int;  (* queued: bytes already transmitted *)
  mutable e_fin : bool;
  mutable e_sent_at : Time.t;
  mutable e_rexmit : bool;
  mutable e_sacked : bool;
  mutable e_retx_epoch : int;  (* recovery round it was last retransmitted in *)
  mutable e_born_epoch : int;  (* recovery round it was first transmitted in *)
  mutable e_next : entry;  (* chain link; the chain's [nil] ends it *)
}

(* A FIFO of entries. [nil] is a self-linked sentinel of the domain the
   chain was made on; entries taken on another domain's pool link in just
   the same, as the link is rewritten on every push. *)
type chain = { nil : entry; mutable head : entry; mutable tail : entry }

type pool = { entries : entry Arena.t; p_nil : entry }

let pool_key : pool Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let rec nil =
        {
          e_off = 0;
          e_len = 0;
          e_dsn = 0;
          e_sent = 0;
          e_fin = false;
          e_sent_at = Time.zero;
          e_rexmit = false;
          e_sacked = false;
          e_retx_epoch = -1;
          e_born_epoch = 0;
          e_next = nil;
        }
      in
      { entries = Arena.create (fun () -> { nil with e_next = nil }); p_nil = nil })

let chain () =
  let nil = (Domain.DLS.get pool_key).p_nil in
  { nil; head = nil; tail = nil }

let is_empty c = c.head == c.nil
let take_entry () = Arena.take (Domain.DLS.get pool_key).entries [@@smapp.hot]
let release_entry e = Arena.put (Domain.DLS.get pool_key).entries e [@@smapp.hot]

let push c e =
  e.e_next <- c.nil;
  if c.head == c.nil then c.head <- e else c.tail.e_next <- e;
  c.tail <- e
[@@smapp.hot]

let drop_head c =
  let e = c.head in
  c.head <- e.e_next;
  if c.head == c.nil then c.tail <- c.nil;
  release_entry e
[@@smapp.hot]

let clear c =
  while not (is_empty c) do
    drop_head c
  done

type callbacks = {
  on_established : t -> unit;
  on_data : t -> dsn:int -> len:int -> unit;
  on_fin : t -> unit;
  on_can_send : t -> unit;
  on_rto_event : t -> Time.span -> int -> unit;
  on_close : t -> Tcp_error.t option -> unit;
  on_chunk_acked : t -> dsn:int -> len:int -> unit;
  on_options : t -> Segment.t -> unit;
}

and t = {
  engine : Engine.t;
  config : config;
  cbs : callbacks;
  tx : Segment.t -> unit;
  forget : t -> unit;  (* the stack's close hook *)
  flow : Ip.flow;
  rtt : Rtt.t;
  cc : Cc.t;
  reasm : Reasm.t;
  iss : Seq32.t;
  mutable irs : Seq32.t;  (* valid once SYN received *)
  mutable state : Tcp_info.state;
  (* send side, unwrapped offsets: 0 = SYN, data starts at 1 *)
  mutable snd_una : int;
  mutable snd_nxt : int;
  mutable peer_rwnd : int;
  send_queue : chain;
  mutable queued_bytes : int;
  rtx_queue : chain;  (* sorted by e_off; cumulative acks pop a prefix *)
  rtx_timer : Engine.timer;  (* SYN retries while Syn_sent, the RTO after *)
  mutable rto_backoffs : int;
  mutable total_retrans : int;
  mutable dup_acks : int;
  mutable in_recovery : bool;
  mutable recover : int;
  mutable recovery_epoch : int;
  (* receive side, unwrapped: 0 = peer SYN, data starts at 1 *)
  mutable rcv_nxt : int;
  mutable bytes_received : int;
  (* handshake *)
  mutable syn_retries : int;
  hs_options : Segment.tcp_option list;  (* its SYN's, or its SYN-ACK's *)
  (* teardown *)
  mutable fin_pending : bool;
  mutable fin_offset : int option;  (* snd offset the FIN consumes *)
  mutable closed_notified : bool;
  mutable backup : bool;
  mutable pumping : bool;
  mutable last_transmit : Time.t;
}

let null_callbacks =
  {
    on_established = (fun _ -> ());
    on_data = (fun _ ~dsn:_ ~len:_ -> ());
    on_fin = (fun _ -> ());
    on_can_send = (fun _ -> ());
    on_rto_event = (fun _ _ _ -> ());
    on_close = (fun _ _ -> ());
    on_chunk_acked = (fun _ ~dsn:_ ~len:_ -> ());
    on_options = (fun _ _ -> ());
  }

let flow t = t.flow

(* --- conformance instrumentation ------------------------------------------

   Every TCB state change funnels through [set_state]. When [checks_enabled]
   is off (the default, and the release configuration) the instrumentation
   is one immediate load and a fall-through branch; tooling such as
   [Smapp_check.Fsm] flips it on to validate observed transitions against
   the explicit RFC 793 table and fail loudly with a trace. *)

let checks_enabled = Atomic.make false

let transition_hook : (flow:Ip.flow -> Tcp_info.state -> Tcp_info.state -> unit) Atomic.t =
  Atomic.make (fun ~flow:_ _ _ -> ())

(* Observability handles, same load-and-branch cost model as the
   conformance hook above. Cwnd is sampled in bytes on each
   congestion-avoidance update. *)
let m_retransmits =
  Smapp_obs.Metrics.counter ~help:"segments retransmitted" "tcp_retransmits_total"

let m_rto_fired =
  Smapp_obs.Metrics.counter ~help:"retransmission timeouts fired" "tcp_rto_fired_total"

let m_cwnd =
  Smapp_obs.Metrics.histogram ~help:"congestion window samples in bytes" ~base:1460.0
    ~growth:2.0 ~buckets:20 "tcp_cwnd_bytes"

let set_state t next =
  let prev = t.state in
  if prev <> next then begin
    t.state <- next;
    Cc.set_established t.cc (next = Tcp_info.Established);
    if Atomic.get checks_enabled then
      (Atomic.get transition_hook) ~flow:t.flow prev next
  end
let established t = t.state = Tcp_info.Established
let set_backup t b = t.backup <- b
let is_backup t = t.backup
let srtt_ns t = if Rtt.has_srtt t.rtt then Time.span_to_ns (Rtt.srtt_value t.rtt) else 0

let current_rto t = Rtt.backoff (Rtt.rto t.rtt) t.rto_backoffs

let srtt_seconds t =
  if Rtt.has_srtt t.rtt then Time.span_to_float_s (Rtt.srtt_value t.rtt) else 0.0

let pacing_rate t = Cc.pacing_rate t.cc ~srtt:(srtt_seconds t)

(* --- wire <-> unwrapped sequence conversion ------------------------------ *)

let wire_of_snd t off = Seq32.add t.iss off
let wire_of_rcv t off = Seq32.add t.irs off

(* Unwrap a wire sequence number around a reference unwrapped offset. *)
let unwrap_rcv t seq = t.rcv_nxt + Seq32.diff seq (wire_of_rcv t t.rcv_nxt)
let unwrap_ack t ack = t.snd_una + Seq32.diff ack (wire_of_snd t t.snd_una)

(* --- segment emission ----------------------------------------------------- *)

let advertised_window t = max 0 (t.config.rcv_window - Reasm.buffered_bytes t.reasm)

(* SACK blocks advertising the first three out-of-order ranges we hold,
   written into the segment's own array. *)
let sack_blocks t seg =
  for i = 0 to min 3 (Reasm.count t.reasm) - 1 do
    let start = Reasm.range_start t.reasm i in
    Segment.add_sack seg (wire_of_rcv t start)
      (wire_of_rcv t (start + Reasm.range_len t.reasm i))
  done
[@@smapp.hot]

let emit t seg = t.tx seg

(* Emit a segment at send offset [off] carrying [len] payload bytes
   mapped at [dsn], acknowledging [rcv_nxt] with the current window and
   SACK blocks (every sender but the SYNs, the FIN and RST, which
   [Segment.stamp] themselves). *)
let emit_with_sack t ~off ~fin ~dsn ~len ~options =
  let seg =
    Segment.stamp ~flow:t.flow ~syn:false ~ack:true ~fin ~rst:false ~seq:(wire_of_snd t off)
      ~ack_seq:(wire_of_rcv t t.rcv_nxt) ~window:(advertised_window t) ~dsn ~len ~options
  in
  sack_blocks t seg;
  emit t seg
[@@smapp.hot]

let send_ack_segment t ?(options = []) () =
  emit_with_sack t ~off:t.snd_nxt ~fin:false ~dsn:0 ~len:0 ~options
[@@smapp.hot]

let send_rst t =
  emit t
    (Segment.stamp ~flow:t.flow ~syn:false ~ack:true ~fin:false ~rst:true
       ~seq:(wire_of_snd t t.snd_nxt) ~ack_seq:(wire_of_rcv t t.rcv_nxt)
       ~window:(1 lsl 20) ~dsn:0 ~len:0 ~options:[])

(* --- timers ---------------------------------------------------------------- *)

(* The first in-flight entry not SACKed, or [nil]. *)
let first_unsacked t =
  let e = ref t.rtx_queue.head in
  while !e != t.rtx_queue.nil && !e.e_sacked do
    e := !e.e_next
  done;
  !e
[@@smapp.hot]

let arm_rto t =
  if is_empty t.rtx_queue then Engine.cancel t.rtx_timer
  else Engine.set t.rtx_timer (Time.add (Engine.now t.engine) (current_rto t))
[@@smapp.hot]

(* The one way into loss recovery: it lasts until [recover], everything
   sent so far, is acknowledged, and opens a new epoch, so an entry
   retransmitted in an earlier one may go again and no entry sent before
   it gives an RTT sample. *)
let enter_recovery t =
  t.in_recovery <- true;
  t.recover <- t.snd_nxt;
  t.recovery_epoch <- t.recovery_epoch + 1

let rec on_rto_expire t =
  if not (is_empty t.rtx_queue) then begin
    t.rto_backoffs <- t.rto_backoffs + 1;
    Smapp_obs.Metrics.incr m_rto_fired;
    (* gated here: the args would otherwise be built per RTO *)
    if Atomic.get Smapp_obs.Scope.enabled then
      Smapp_obs.Trace.instant ~cat:"tcp"
        ~args:[ ("backoffs", string_of_int t.rto_backoffs) ]
        "rto";
    if t.rto_backoffs > t.config.max_rto_backoffs then kill t Tcp_error.Etimedout
    else begin
      Cc.on_rto t.cc;
      (* RFC 6582: an RTO *enters* loss recovery (up to [recover] = snd_nxt)
         rather than leaving it. Everything transmitted before the timeout
         still counts as in flight, so the congestion window stays closed
         until the holes are repaired — recovery must let each returning
         partial ack clock out the next head-of-line retransmission, or the
         repair degenerates to one segment per (backed-off) RTO and a lossy
         single-path transfer crawls at ~1 MSS per 120 s. *)
      enter_recovery t;
      t.dup_acks <- 0;
      (* RFC 2018: after an RTO, SACK information must not be trusted *)
      let e = ref t.rtx_queue.head in
      while !e != t.rtx_queue.nil do
        !e.e_sacked <- false;
        e := !e.e_next
      done;
      retransmit_first t;
      t.cbs.on_rto_event t (current_rto t) t.rto_backoffs;
      if t.state <> Tcp_info.Closed then arm_rto t
    end
  end

and retransmit_entry t r =
  r.e_rexmit <- true;
  r.e_retx_epoch <- t.recovery_epoch;
  t.total_retrans <- t.total_retrans + 1;
  Smapp_obs.Metrics.incr m_retransmits;
  Smapp_obs.Trace.instant ~cat:"tcp" "retransmit";
  r.e_sent_at <- Engine.now t.engine;
  emit_with_sack t ~off:r.e_off ~fin:r.e_fin ~dsn:r.e_dsn ~len:r.e_len ~options:[]

and retransmit_first t =
  let r = first_unsacked t in
  if r != t.rtx_queue.nil then retransmit_entry t r
  else if not (is_empty t.rtx_queue) then retransmit_entry t t.rtx_queue.head

(* --- teardown -------------------------------------------------------------- *)

(* The close upcall runs before the chains empty: a meta layer walks
   them ([iter_unacked]) to reinject what this subflow still holds. *)
and teardown t err =
  Engine.cancel t.rtx_timer;
  set_state t Tcp_info.Closed;
  if not t.closed_notified then begin
    t.closed_notified <- true;
    t.forget t;
    t.cbs.on_close t err
  end;
  clear t.rtx_queue;
  clear t.send_queue;
  t.queued_bytes <- 0

and kill t err = teardown t (Some err)

let abort t =
  if t.state <> Tcp_info.Closed then begin
    send_rst t;
    teardown t (Some Tcp_error.Econnreset)
  end

(* --- transmission ---------------------------------------------------------- *)

let bytes_in_flight t = t.snd_nxt - t.snd_una

let send_window t = min (Cc.cwnd t.cc) t.peer_rwnd

let window_space t = max 0 (send_window t - bytes_in_flight t)

(* Window space not already spoken for by queued-but-untransmitted bytes:
   what an upper layer may still enqueue and see transmitted immediately. *)
let available_window t = max 0 (window_space t - t.queued_bytes)

(* A pooled in-flight entry for [len] bytes at send offset [off]; entries
   are emitted in offset order, so pushing at the tail keeps the sort. *)
let push_rtx t ~off ~len ~dsn ~fin =
  let r = take_entry () in
  r.e_off <- off;
  r.e_len <- len;
  r.e_dsn <- dsn;
  r.e_fin <- fin;
  r.e_sent_at <- Engine.now t.engine;
  r.e_rexmit <- false;
  r.e_sacked <- false;
  r.e_retx_epoch <- -1;
  r.e_born_epoch <- t.recovery_epoch;
  push t.rtx_queue r
[@@smapp.hot]

let transmit_chunk_bytes t =
  (* Slow start after idle: an application pause longer than the RTO decays
     the window (RFC 2861), like Linux's tcp_slow_start_after_idle. *)
  (if bytes_in_flight t = 0 then begin
     let idle = Time.diff (Engine.now t.engine) t.last_transmit in
     let rto = Rtt.rto t.rtt in
     if Time.compare_span idle rto > 0 then begin
       let idle_rtos = Time.span_to_ns idle / max 1 (Time.span_to_ns rto) in
       Cc.on_idle_restart t.cc ~idle_rtos
     end
   end);
  (* Take up to MSS bytes from the head chunk and emit one data segment.
     Sender-side silly-window avoidance: when a full MSS is waiting, don't
     shave sub-MSS segments off a fractionally open window — wait for acks
     to open at least one MSS. *)
  let chunk = t.send_queue.head in
  let remaining = chunk.e_len - chunk.e_sent in
  let len = min t.config.mss (min remaining (window_space t)) in
  if len <= 0 || (len < t.config.mss && len < remaining) then false
  else begin
    let dsn = chunk.e_dsn + chunk.e_sent in
    let off = t.snd_nxt in
    chunk.e_sent <- chunk.e_sent + len;
    if chunk.e_sent = chunk.e_len then drop_head t.send_queue;
    t.queued_bytes <- t.queued_bytes - len;
    t.snd_nxt <- t.snd_nxt + len;
    t.last_transmit <- Engine.now t.engine;
    push_rtx t ~off ~len ~dsn ~fin:false;
    emit_with_sack t ~off ~fin:false ~dsn ~len ~options:[];
    if not (Engine.timer_active t.rtx_timer) then arm_rto t;
    true
  end
[@@smapp.hot]

let maybe_send_fin t =
  (* FIN goes out once all queued data has been transmitted. *)
  if
    t.fin_pending && t.fin_offset = None && is_empty t.send_queue
    && (t.state = Tcp_info.Established || t.state = Tcp_info.Close_wait)
  then begin
    let off = t.snd_nxt in
    t.snd_nxt <- t.snd_nxt + 1;
    t.fin_offset <- Some off;
    push_rtx t ~off ~len:0 ~dsn:0 ~fin:true;
    emit t
      (Segment.stamp ~flow:t.flow ~syn:false ~ack:true ~fin:true ~rst:false
         ~seq:(wire_of_snd t off) ~ack_seq:(wire_of_rcv t t.rcv_nxt)
         ~window:(advertised_window t) ~dsn:0 ~len:0 ~options:[]);
    if not (Engine.timer_active t.rtx_timer) then arm_rto t;
    set_state t
      (match t.state with
      | Tcp_info.Close_wait -> Tcp_info.Last_ack
      | _ -> Tcp_info.Fin_wait_1)
  end

let rec pump t =
  (* Close_wait is a half-close: the peer is done sending but we may still
     have queued data to deliver (and a FIN to send after it). *)
  if
    (not t.pumping)
    && (t.state = Tcp_info.Established || t.state = Tcp_info.Close_wait)
  then begin
    t.pumping <- true;
    let progress = ref true in
    while !progress do
      progress := false;
      if not (is_empty t.send_queue) then begin
        if window_space t > 0 then progress := transmit_chunk_bytes t
      end
      else if window_space t > 0 && not t.fin_pending then begin
        (* ask the upper layer for more; it may enqueue synchronously *)
        let before = t.queued_bytes in
        t.cbs.on_can_send t;
        if t.queued_bytes > before then progress := true
      end
    done;
    t.pumping <- false;
    maybe_send_fin t
  end
[@@smapp.hot]

and enqueue t ~dsn ~len =
  if len <= 0 then invalid_arg "Tcb.enqueue: len must be positive";
  if t.fin_pending then invalid_arg "Tcb.enqueue: already closing";
  let c = take_entry () in
  c.e_dsn <- dsn;
  c.e_len <- len;
  c.e_sent <- 0;
  push t.send_queue c;
  t.queued_bytes <- t.queued_bytes + len;
  if not t.pumping then pump t
[@@smapp.hot]

let close t =
  match t.state with
  | Tcp_info.Closed | Tcp_info.Time_wait | Tcp_info.Fin_wait_1 | Tcp_info.Fin_wait_2
  | Tcp_info.Closing | Tcp_info.Last_ack ->
      ()
  | Tcp_info.Syn_sent | Tcp_info.Syn_received -> teardown t None
  | Tcp_info.Established | Tcp_info.Close_wait ->
      t.fin_pending <- true;
      maybe_send_fin t

let iter_unacked t f x =
  let e = ref t.rtx_queue.head in
  while !e != t.rtx_queue.nil do
    let r = !e in
    if r.e_len > 0 then f x r.e_dsn r.e_len;
    e := r.e_next
  done;
  e := t.send_queue.head;
  while !e != t.send_queue.nil do
    let c = !e in
    if c.e_sent < c.e_len then f x (c.e_dsn + c.e_sent) (c.e_len - c.e_sent);
    e := c.e_next
  done

(* --- acknowledgement processing -------------------------------------------- *)

(* Mark in-flight entries covered by one of the peer's SACK blocks. *)
let apply_sack t seg =
  let n = seg.Segment.sack_count in
  if n > 0 then begin
    let base = wire_of_snd t t.snd_una in
    let e = ref t.rtx_queue.head in
    while !e != t.rtx_queue.nil do
      let r = !e in
      if (not r.e_sacked) && r.e_len > 0 then begin
        let r_end = r.e_off + r.e_len in
        for i = 0 to n - 1 do
          let lo = t.snd_una + Seq32.diff (Segment.sack_lo seg i) base in
          let hi = t.snd_una + Seq32.diff (Segment.sack_hi seg i) base in
          if lo <= r.e_off && r_end <= hi then r.e_sacked <- true
        done
      end;
      e := r.e_next
    done
  end
[@@smapp.hot]

let sacked_bytes t =
  let sum = ref 0 and e = ref t.rtx_queue.head in
  while !e != t.rtx_queue.nil do
    if !e.e_sacked then sum := !sum + !e.e_len;
    e := !e.e_next
  done;
  !sum
[@@smapp.hot]

(* An unsacked range with >= 3 MSS of sacked data above it is deemed lost. *)
let lost t r ~highest_sacked =
  (not r.e_sacked) && r.e_len > 0
  && r.e_off + r.e_len + (3 * t.config.mss) <= highest_sacked

(* SACK-based loss detection and retransmission (RFC 6675 in spirit):
   during recovery each incoming ack may retransmit as many lost ranges as
   the congestion window allows. *)
let sack_retransmit t =
  let q = t.rtx_queue in
  let highest_sacked = ref (-1) and any_lost = ref false and e = ref q.head in
  while !e != q.nil do
    if !e.e_sacked then highest_sacked := max !highest_sacked (!e.e_off + !e.e_len);
    e := !e.e_next
  done;
  e := q.head;
  while !highest_sacked <> -1 && !e != q.nil do
    if lost t !e ~highest_sacked:!highest_sacked then any_lost := true;
    e := !e.e_next
  done;
  if !any_lost then begin
    if not t.in_recovery then begin
      enter_recovery t;
      Cc.on_retransmit_loss t.cc
    end;
    let budget =
      ref (max 1 ((Cc.cwnd t.cc - (bytes_in_flight t - sacked_bytes t)) / t.config.mss))
    in
    e := q.head;
    while !e != q.nil do
      let r = !e in
      if !budget > 0 && lost t r ~highest_sacked:!highest_sacked
         && r.e_retx_epoch < t.recovery_epoch
      then begin
        retransmit_entry t r;
        decr budget
      end;
      e := r.e_next
    done
  end
[@@smapp.hot]

let process_ack t seg =
  if not seg.Segment.ack then ()
  else begin
    let ack_off = unwrap_ack t seg.Segment.ack_seq in
    t.peer_rwnd <- seg.Segment.window;
    apply_sack t seg;
    if ack_off > t.snd_una && ack_off <= t.snd_nxt then begin
      let acked_bytes = ack_off - t.snd_una in
      t.snd_una <- ack_off;
      t.dup_acks <- 0;
      (* Drop fully-covered rtx entries. RTT sampling: only the oldest newly
         covered range that was neither retransmitted (Karn) nor SACKed
         earlier gives a valid sample — a long-SACKed range is only being
         *cumulatively* covered now because an earlier hole filled, and
         timing it would fold the hole's repair time into the RTT. The same
         goes for any range that straddled a recovery episode: an RTO wipes
         the SACK flags (RFC 2018), so "never SACKed" is not evidence the
         ack was prompt — require the range to have been born in the current
         recovery epoch, i.e. no loss event separates send from ack. The
         sample is a send time in ns, -1 for none. *)
      let q = t.rtx_queue in
      let first = q.head and covered = ref 0 and sample = ref (-1) and more = ref true in
      (* the queue is sorted by e_off with contiguous ranges, so the
         fully-covered entries are exactly a prefix: detach it *)
      while !more && q.head != q.nil do
        let r = q.head in
        if r.e_off + max r.e_len (if r.e_fin then 1 else 0) <= ack_off then begin
          q.head <- r.e_next;
          incr covered;
          if
            (not r.e_rexmit) && (not r.e_sacked)
            && r.e_born_epoch = t.recovery_epoch
            && !sample < 0
          then sample := Time.to_ns r.e_sent_at
        end
        else more := false
      done;
      if q.head == q.nil then q.tail <- q.nil;
      (* the queue is consistent: hand the prefix up in order, returning
         each entry to the pool before its upcall *)
      let e = ref first in
      for _ = 1 to !covered do
        let r = !e in
        e := r.e_next;
        let dsn = r.e_dsn and len = r.e_len in
        release_entry r;
        if len > 0 then t.cbs.on_chunk_acked t ~dsn ~len
      done;
      if !sample >= 0 then begin
        Rtt.sample t.rtt (Time.diff (Engine.now t.engine) (Time.of_ns !sample));
        Cc.set_srtt_ns t.cc (Time.span_to_ns (Rtt.srtt_value t.rtt))
      end;
      t.rto_backoffs <- 0;
      if t.in_recovery then begin
        if ack_off >= t.recover then t.in_recovery <- false
        else begin
          (* NewReno partial ack; with SACK we retransmit the known holes,
             and always retry the head hole if it has been quiet for an
             RTT — a retransmission lost a second time must not wait for
             the RTO. Conservative: a full un-backed-off RTO of silence,
             so queue growth cannot trick us into spurious duplicates. *)
          sack_retransmit t;
          let r = first_unsacked t in
          if
            r != q.nil
            && Time.compare_span (Time.diff (Engine.now t.engine) r.e_sent_at) (Rtt.rto t.rtt)
               >= 0
          then retransmit_entry t r
        end
      end
      else sack_retransmit t;
      if not t.in_recovery then Cc.on_ack t.cc ~acked:acked_bytes;
      (* gated at the call site: the float argument would box per ack even
         while metrics are disabled *)
      if Atomic.get Smapp_obs.Scope.enabled then
        Smapp_obs.Metrics.observe m_cwnd (float_of_int (Cc.cwnd t.cc));
      arm_rto t
    end
    else if
      ack_off = t.snd_una
      && (not (is_empty t.rtx_queue))
      && Segment.payload_len seg = 0
      && not seg.Segment.syn && not seg.Segment.fin
    then begin
      t.dup_acks <- t.dup_acks + 1;
      sack_retransmit t;
      if t.dup_acks = 3 && not t.in_recovery then begin
        enter_recovery t;
        Cc.on_retransmit_loss t.cc;
        retransmit_first t
      end
    end
  end
[@@smapp.hot]

(* --- receive path ----------------------------------------------------------- *)

let deliver_ready t =
  let len = ref (Reasm.pop_ready t.reasm ~rcv_nxt:t.rcv_nxt) in
  while !len > 0 do
    let dsn = Reasm.popped_dsn t.reasm in
    t.rcv_nxt <- t.rcv_nxt + !len;
    t.bytes_received <- t.bytes_received + !len;
    t.cbs.on_data t ~dsn ~len:!len;
    len := Reasm.pop_ready t.reasm ~rcv_nxt:t.rcv_nxt
  done
[@@smapp.hot]

let process_payload t seg =
  match seg.Segment.payload with
  | None -> false
  | Some { Segment.dsn; len } ->
      let off = unwrap_rcv t seg.Segment.seq in
      (* trim what we already delivered *)
      let skip = max 0 (t.rcv_nxt - off) in
      if skip < len then Reasm.insert t.reasm ~seq:(off + skip) ~len:(len - skip) ~dsn:(dsn + skip);
      deliver_ready t;
      true
[@@smapp.hot]

let process_fin t seg =
  if not seg.Segment.fin then false
  else begin
    let fin_off = unwrap_rcv t seg.Segment.seq + Segment.payload_len seg in
    if fin_off = t.rcv_nxt then begin
      t.rcv_nxt <- t.rcv_nxt + 1;
      (match t.state with
      | Tcp_info.Established ->
          set_state t Tcp_info.Close_wait;
          t.cbs.on_fin t
      | Tcp_info.Fin_wait_1 ->
          (* our FIN not yet acked: simultaneous close *)
          set_state t Tcp_info.Closing;
          t.cbs.on_fin t
      | Tcp_info.Fin_wait_2 ->
          set_state t Tcp_info.Time_wait;
          t.cbs.on_fin t;
          let linger = Time.span_scale 2 Rtt.min_rto in
          Engine.schedule t.engine (Time.add (Engine.now t.engine) linger) (fun () ->
              teardown t None)
      | Tcp_info.Close_wait | Tcp_info.Closing | Tcp_info.Last_ack | Tcp_info.Time_wait
      | Tcp_info.Closed | Tcp_info.Syn_sent | Tcp_info.Syn_received ->
          ());
      true
    end
    else true (* out-of-order or duplicate FIN still deserves an ACK *)
  end

(* Track whether our FIN is acked to move FIN_WAIT_1 -> FIN_WAIT_2 etc. *)
let check_fin_acked t =
  match t.fin_offset with
  | Some off when t.snd_una > off -> (
      match t.state with
      | Tcp_info.Fin_wait_1 -> set_state t Tcp_info.Fin_wait_2
      | Tcp_info.Closing ->
          set_state t Tcp_info.Time_wait;
          let linger = Time.span_scale 2 Rtt.min_rto in
          Engine.schedule t.engine (Time.add (Engine.now t.engine) linger) (fun () ->
              teardown t None)
      | Tcp_info.Last_ack -> teardown t None
      | Tcp_info.Established | Tcp_info.Fin_wait_2 | Tcp_info.Close_wait
      | Tcp_info.Time_wait | Tcp_info.Closed | Tcp_info.Syn_sent | Tcp_info.Syn_received ->
          ())
  | Some _ | None -> ()

(* --- handshake -------------------------------------------------------------- *)

let send_syn t =
  emit t
    (Segment.stamp ~flow:t.flow ~syn:true ~ack:false ~fin:false ~rst:false ~seq:t.iss
       ~ack_seq:Seq32.zero ~window:(advertised_window t) ~dsn:0 ~len:0 ~options:t.hs_options)

let arm_syn_timer t =
  let delay = Rtt.backoff Rtt.initial_rto t.syn_retries in
  Engine.set t.rtx_timer (Time.add (Engine.now t.engine) delay)

(* The retransmission timer serves the handshake and the data alike, as
   Linux's [icsk_retransmit_timer] does: only a TCB in Syn_sent ever arms
   it for a SYN. *)
let on_rtx_timer t =
  if t.state <> Tcp_info.Syn_sent then on_rto_expire t
  else begin
    t.syn_retries <- t.syn_retries + 1;
    if t.syn_retries > max_syn_retries then kill t Tcp_error.Etimedout
    else begin
      send_syn t;
      arm_syn_timer t
    end
  end

let send_synack t =
  emit t
    (Segment.stamp ~flow:t.flow ~syn:true ~ack:true ~fin:false ~rst:false ~seq:t.iss
       ~ack_seq:(wire_of_rcv t t.rcv_nxt) ~window:(advertised_window t) ~dsn:0 ~len:0
       ~options:t.hs_options)

let become_established t =
  set_state t Tcp_info.Established;
  Engine.cancel t.rtx_timer;
  t.cbs.on_established t;
  pump t

(* --- main receive entry ------------------------------------------------------ *)

let handle_segment t seg =
  (* Arena use-after-free tripwire: under conformance checking a segment
     whose pooled slot was already released must never re-enter the FSM.
     Same load-and-branch cost model as the transition hook. *)
  if Atomic.get checks_enabled && not (Segment.is_live seg) then
    Smapp_sim.Bug.fail
      "Tcb.handle_segment: segment slot was released (generation %d) — \
       use after arena free"
      (Segment.generation seg);
  if t.state = Tcp_info.Closed then ()
  else if seg.Segment.rst then begin
    let err =
      if t.state = Tcp_info.Syn_sent then Tcp_error.Econnrefused else Tcp_error.Econnreset
    in
    teardown t (Some err)
  end
  else begin
    if seg.Segment.options <> [] then t.cbs.on_options t seg;
    match t.state with
    | Tcp_info.Syn_sent ->
        if seg.Segment.syn && seg.Segment.ack then begin
          t.irs <- seg.Segment.seq;
          t.rcv_nxt <- 1;
          let ack_off = unwrap_ack t seg.Segment.ack_seq in
          if ack_off = 1 then begin
            t.snd_una <- 1;
            t.snd_nxt <- 1;
            t.peer_rwnd <- seg.Segment.window;
            send_ack_segment t ();
            become_established t
          end
          else abort t
        end
    | Tcp_info.Syn_received ->
        if seg.Segment.syn && not seg.Segment.ack then
          (* retransmitted SYN: our SYN+ACK was lost *)
          send_synack t
        else begin
          process_ack t seg;
          if t.snd_una >= 1 && t.state = Tcp_info.Syn_received then begin
            t.peer_rwnd <- seg.Segment.window;
            become_established t;
            (* the third ACK may carry data *)
            let had_payload = process_payload t seg in
            let fin_rcvd = process_fin t seg in
            if had_payload || fin_rcvd then send_ack_segment t ()
          end
        end
    | Tcp_info.Established | Tcp_info.Fin_wait_1 | Tcp_info.Fin_wait_2
    | Tcp_info.Close_wait | Tcp_info.Closing | Tcp_info.Last_ack | Tcp_info.Time_wait ->
        if seg.Segment.syn then
          (* stray handshake retransmit: re-ack *)
          send_ack_segment t ()
        else begin
          let rcv_nxt_before = t.rcv_nxt in
          process_ack t seg;
          check_fin_acked t;
          if t.state <> Tcp_info.Closed then begin
            let had_payload = process_payload t seg in
            let fin_rcvd = process_fin t seg in
            let out_of_order =
              had_payload && t.rcv_nxt = rcv_nxt_before
            in
            if had_payload || fin_rcvd || out_of_order then send_ack_segment t ();
            pump t
          end
        end
    | Tcp_info.Closed -> ()
  end
[@@smapp.hot]

(* --- info -------------------------------------------------------------------- *)

let info t =
  {
    Tcp_info.state = t.state;
    rto = current_rto t;
    srtt = Rtt.srtt t.rtt;
    snd_cwnd = Cc.cwnd t.cc;
    pacing_rate = pacing_rate t;
    snd_una = t.snd_una;
    snd_nxt = t.snd_nxt;
    retransmits = t.rto_backoffs;
    total_retrans = t.total_retrans;
    backup = t.backup;
  }

(* --- construction ------------------------------------------------------------- *)

let make_tcb engine ~tx ~forget ~flow ~config ~backup ~hs_options cbs state =
  let rng = Engine.split_rng engine in
  let t =
    {
      engine;
      config;
      cbs;
      tx;
      forget;
      flow;
      rtt = Rtt.create ();
      cc =
        Cc.create ~algo:config.cc_algo ~initial_window:config.initial_cwnd_segments
          ~mss:config.mss ();
      reasm = Reasm.create ();
      iss = Seq32.of_int (Rng.bits30 rng);
      irs = Seq32.zero;
      state;
      snd_una = 0;
      snd_nxt = 0;
      peer_rwnd = 1 lsl 20;
      send_queue = chain ();
      queued_bytes = 0;
      rtx_queue = chain ();
      rtx_timer = Engine.timer engine ignore (* bound below *);
      rto_backoffs = 0;
      total_retrans = 0;
      dup_acks = 0;
      in_recovery = false;
      recover = 0;
      recovery_epoch = 0;
      rcv_nxt = 0;
      bytes_received = 0;
      syn_retries = 0;
      hs_options;
      fin_pending = false;
      fin_offset = None;
      closed_notified = false;
      backup;
      pumping = false;
      last_transmit = Time.zero;
    }
  in
  (* bound once the record exists: its callback needs the TCB *)
  Engine.set_callback t.rtx_timer (fun () -> on_rtx_timer t);
  t

let create_active engine ~tx ~forget ~flow ~config ~backup ~syn_options cbs =
  let t =
    make_tcb engine ~tx ~forget ~flow ~config ~backup ~hs_options:syn_options cbs
      Tcp_info.Syn_sent
  in
  send_syn t;
  t.snd_nxt <- 1;
  arm_syn_timer t;
  t

let create_passive engine ~tx ~forget ~syn ~config ~synack_options cbs =
  let flow = Ip.reverse syn.Segment.flow in
  let t =
    make_tcb engine ~tx ~forget ~flow ~config ~backup:false ~hs_options:synack_options cbs
      Tcp_info.Syn_received
  in
  t.irs <- syn.Segment.seq;
  t.rcv_nxt <- 1;
  t.peer_rwnd <- syn.Segment.window;
  (* the SYN's options were already read by the listener *)
  send_synack t;
  t.snd_nxt <- 1;
  t

let cc t = t.cc
let send_ack_with_options t options = send_ack_segment t ~options ()
