open Smapp_sim

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped : int;
  mutable bytes_delivered : int;
}

(* One in-flight packet, pooled and chained into the link's pending queue
   in delivery-key order. The key is (p_at, p_r1, serial): r2 (the link
   uid) is constant per link and the serial is [p_r3]. *)
type pending = {
  mutable p_pkt : Packet.t;
  mutable p_dst : Packet.t -> unit; (* destination captured at send time *)
  mutable p_at : int; (* delivery instant, ns *)
  mutable p_r1 : int; (* transmit-time ns: rank key 1 *)
  mutable p_r3 : int; (* per-link serial: rank key 3 *)
  mutable p_gen : int; (* link generation at send, for kill-in-flight *)
  mutable p_next : pending; (* key-sorted chain; [pq_nil] terminates *)
}

type t = {
  engine : Engine.t;
  name : string;
  uid : int; (* construction-order id, the tie-rank key for deliveries *)
  rng : Rng.t;
  mutable rate_bps : float;
  mutable delay : Time.span;
  mutable loss : float;
  queue_capacity : int;
  (* End times (ns) of the accepted transmissions not yet over, oldest
     first: a FIFO ring of [tx_len] entries from [tx_head]. Ends never
     decrease ([busy_until] is monotone), so [send] pops every end <= now
     from the front and the ring's length is the queue occupancy. It
     grows by doubling up to [queue_capacity], which bounds its length. *)
  mutable tx_ends : int array;
  mutable tx_head : int;
  mutable tx_len : int;
  mutable busy_until : Time.t;
  mutable dst : (Packet.t -> unit) option;
  (* Cross-shard trunk mode: delivery is committed at transmit time
     through this mailbox post instead of a local engine timer. *)
  mutable remote :
    (time:Time.t -> rank:int * int * int -> (unit -> unit) -> unit) option;
  mutable up : bool;
  mutable gen : int;          (* bumped on every up->down transition *)
  stats : stats;
  (* Batched-drain state: the pending queue (key-sorted intrusive chain),
     its slot pool, and the one wheel callback ("deliver the queue head")
     shared by every packet the link ever carries. *)
  pq_nil : pending;
  mutable pq_head : pending;
  mutable pq_tail : pending;
  mutable pq_free : pending;
  mutable on_drain : unit -> unit;
}

let drop_pkt (_ : Packet.t) = ()

let rec create engine ?(name = "link") ~rate_bps ~delay ?(loss = 0.0)
    ?(queue_capacity = 100) () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Link.create: loss out of [0,1]";
  let sentinel_flow =
    let a = Ip.endpoint (Ip.v4 0 0 0 0) 0 in
    Ip.flow ~src:a ~dst:a
  in
  let rec pq_nil =
    {
      p_pkt = Packet.make ~flow:sentinel_flow ~size:1 (Packet.Raw "");
      p_dst = drop_pkt;
      p_at = max_int;
      p_r1 = 0;
      p_r3 = 0;
      p_gen = 0;
      p_next = pq_nil;
    }
  in
  let rec t =
    {
      engine;
      name;
      uid = Engine.fresh_uid engine;
      rng = Engine.split_rng engine;
      rate_bps;
      delay;
      loss;
      queue_capacity;
      tx_ends = [||];
      tx_head = 0;
      tx_len = 0;
      busy_until = Time.zero;
      dst = None;
      remote = None;
      up = true;
      gen = 0;
      stats = { sent = 0; delivered = 0; lost = 0; dropped = 0; bytes_delivered = 0 };
      pq_nil;
      pq_head = pq_nil;
      pq_tail = pq_nil;
      pq_free = pq_nil;
      on_drain = (fun () -> drain_one t);
    }
  in
  t

and take_pending t =
  let p = t.pq_free in
  if p == t.pq_nil then
    {
      p_pkt = t.pq_nil.p_pkt;
      p_dst = drop_pkt;
      p_at = 0;
      p_r1 = 0;
      p_r3 = 0;
      p_gen = 0;
      p_next = t.pq_nil;
    }
  else begin
    t.pq_free <- p.p_next;
    p.p_next <- t.pq_nil;
    p
  end

and free_pending t p =
  p.p_pkt <- t.pq_nil.p_pkt;
  p.p_dst <- drop_pkt;
  p.p_next <- t.pq_free;
  t.pq_free <- p

(* Deliver (or drop) the head of the pending queue. Every pending entry
   has exactly one drain event scheduled at its own (time, rank) key, and
   the engine dispatches this link's drain events in key order, so by
   induction the queue head is always the entry the firing belongs to —
   checked against the clock below. A packet in flight when the link went
   down is gone for good ([p_gen] mismatch), even if the link is back up
   by its nominal delivery time; it is counted dropped at that same
   instant. *)
and drain_one t =
  let p = t.pq_head in
  if p == t.pq_nil then
    Bug.fail "Link %s: drain fired with an empty pending queue" t.name;
  if p.p_at <> Time.to_ns (Engine.now t.engine) then
    Bug.fail "Link %s: pending head is keyed %d ns but the drain fired at %d ns"
      t.name p.p_at
      (Time.to_ns (Engine.now t.engine));
  let next = p.p_next in
  t.pq_head <- next;
  if next == t.pq_nil then t.pq_tail <- t.pq_nil;
  let pkt = p.p_pkt in
  let dst = p.p_dst in
  let gen = p.p_gen in
  free_pending t p;
  if t.gen <> gen then t.stats.dropped <- t.stats.dropped + 1
  else begin
    Smapp_obs.Prof.enter_class Link_delivery "link:deliver";
    t.stats.delivered <- t.stats.delivered + 1;
    t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
    dst pkt;
    Smapp_obs.Prof.exit_frame ()
  end
[@@smapp.hot]

let set_dst t dst = t.dst <- Some dst
let set_remote t post = t.remote <- Some post

let tx_span t size = Time.span_of_bits (size * 8) ~rate_bps:t.rate_bps

(* Drop every transmission that has ended by [now] from the ring's front.
   A transmission ending at [now] has freed its slot for a send at [now],
   whichever event that send runs in. *)
let rec pop_ended t now =
  if t.tx_len > 0 && t.tx_ends.(t.tx_head) <= now then begin
    let h = t.tx_head + 1 in
    t.tx_head <- (if h = Array.length t.tx_ends then 0 else h);
    t.tx_len <- t.tx_len - 1;
    pop_ended t now
  end
[@@smapp.hot]

(* Cold: the ring is full but the queue is not. *)
let grow_ring t =
  let old = t.tx_ends in
  let cap = Array.length old in
  let ring = Array.make (min t.queue_capacity (max 8 (2 * cap))) 0 in
  for k = 0 to t.tx_len - 1 do
    ring.(k) <- old.((t.tx_head + k) mod cap)
  done;
  t.tx_ends <- ring;
  t.tx_head <- 0

let push_end t tx_end =
  if t.tx_len = Array.length t.tx_ends then grow_ring t;
  let i = t.tx_head + t.tx_len in
  let cap = Array.length t.tx_ends in
  t.tx_ends.(if i >= cap then i - cap else i) <- tx_end;
  t.tx_len <- t.tx_len + 1
[@@smapp.hot]

(* [a] sorts strictly before [b] in delivery-key order. Keys never
   repeat on one link: the serial is strictly increasing. *)
let pending_before a b =
  a.p_at < b.p_at
  || (a.p_at = b.p_at && (a.p_r1 < b.p_r1 || (a.p_r1 = b.p_r1 && a.p_r3 < b.p_r3)))

(* Key-sorted insert. Deliveries almost always enqueue in key order
   (serial grows, delay is constant between [set_delay] calls), so the
   tail append is the hot path; a shrinking delay mid-run (Linkmodel's
   time-varying links) falls back to the ordered walk. *)
let rec enqueue_pending t p =
  if t.pq_head == t.pq_nil then begin
    t.pq_head <- p;
    t.pq_tail <- p
  end
  else if pending_before t.pq_tail p then begin
    t.pq_tail.p_next <- p;
    t.pq_tail <- p
  end
  else if pending_before p t.pq_head then begin
    p.p_next <- t.pq_head;
    t.pq_head <- p
  end
  else insert_after t p t.pq_head
[@@smapp.hot]

(* the ordered-walk fallback, at top level so the hot insert allocates no
   closure for it *)
and insert_after t p prev =
  let nxt = prev.p_next in
  if nxt == t.pq_nil || pending_before p nxt then begin
    p.p_next <- nxt;
    prev.p_next <- p;
    if nxt == t.pq_nil then t.pq_tail <- p
  end
  else insert_after t p nxt

(* Cross-shard trunk: the delivery is committed now — it is already past
   this shard's causal horizon, so a later [set_up false] cannot recall
   it (unlike a local link's kill-in-flight), and the stats count it at
   commit time. The destination shard runs [dst pkt] at [deliver_at].
   The thunk closure is inherent to the mailbox protocol; it is the one
   per-packet allocation left on a trunk. *)
let post_remote t post pkt dst ~deliver_at ~r1 ~r3 =
  t.stats.delivered <- t.stats.delivered + 1;
  t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
  post ~time:deliver_at ~rank:(r1, t.uid, r3) (fun () -> dst pkt)

let send t pkt =
  t.stats.sent <- t.stats.sent + 1;
  match t.dst with
  | None -> invalid_arg "Link.send: destination not set"
  | Some dst ->
      let now = Engine.now t.engine in
      pop_ended t (Time.to_ns now);
      if not t.up then t.stats.dropped <- t.stats.dropped + 1
      else if t.tx_len >= t.queue_capacity then t.stats.dropped <- t.stats.dropped + 1
      else begin
        let start = if Time.(t.busy_until > now) then t.busy_until else now in
        let tx_done = Time.add start (tx_span t pkt.Packet.size) in
        t.busy_until <- tx_done;
        push_end t (Time.to_ns tx_done);
        (* Decide loss when the packet leaves the queue head: it consumed
           bandwidth either way, like a packet corrupted on the wire. *)
        let lost = Rng.bernoulli t.rng t.loss in
        let deliver_at = Time.add tx_done t.delay in
        (* Same-instant deliveries at the receiver order by this canonical
           key — send time, then construction order, then per-link serial —
           a pure function of simulation state, identical whether the
           delivery is scheduled locally or merged in from another shard's
           mailbox. *)
        let r1 = Time.to_ns now in
        let r3 = t.stats.sent in
        if lost then t.stats.lost <- t.stats.lost + 1
        else
          match t.remote with
          | Some post -> post_remote t post pkt dst ~deliver_at ~r1 ~r3
          | None ->
              let p = take_pending t in
              p.p_pkt <- pkt;
              p.p_dst <- dst;
              p.p_at <- Time.to_ns deliver_at;
              p.p_r1 <- r1;
              p.p_r3 <- r3;
              p.p_gen <- t.gen;
              enqueue_pending t p;
              Engine.schedule_ranked t.engine deliver_at ~r1 ~r2:t.uid ~r3
                t.on_drain
      end
[@@smapp.hot]

let set_loss t loss =
  if loss < 0.0 || loss > 1.0 then invalid_arg "Link.set_loss: out of [0,1]";
  t.loss <- loss

let loss t = t.loss
let set_delay t delay = t.delay <- delay
let delay t = t.delay
let set_rate t rate = if rate <= 0.0 then invalid_arg "Link.set_rate" else t.rate_bps <- rate
let rate_bps t = t.rate_bps
let set_up t up =
  if t.up && not up then t.gen <- t.gen + 1;
  t.up <- up
let is_up t = t.up
let stats t = t.stats
