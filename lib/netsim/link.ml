open Smapp_sim

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable lost : int;
  mutable dropped : int;
  mutable bytes_delivered : int;
}

(* One in-flight packet in a pooled slot. The slot owns its delivery
   callback, built once when the pool allocates the slot, so [send]
   schedules it at the packet's own (time, rank) key without allocating:
   the engine's queue alone orders a link's deliveries. *)
type slot = {
  mutable s_pkt : Packet.t;
  mutable s_dst : Packet.t -> unit; (* destination captured at send time *)
  mutable s_gen : int; (* link generation at send, for kill-in-flight *)
  s_deliver : unit -> unit; (* [deliver] of this slot *)
}

type t = {
  engine : Engine.t;
  uid : int; (* construction-order id, the tie-rank key for deliveries *)
  rng : Rng.t;
  mutable rate_bps : float;
  mutable delay : Time.span;
  mutable loss : float;
  queue_capacity : int;
  (* End times (ns) of the accepted transmissions not yet over, oldest
     first. Ends never decrease ([busy_until] is monotone), so [send]
     pops every end <= now from the front and the ring's length is the
     queue occupancy. *)
  mutable tx_ends : Ring.t;
  mutable busy_until : Time.t;
  mutable dst : (Packet.t -> unit) option;
  (* Cross-shard trunk mode: delivery is committed at transmit time
     through this mailbox post instead of a local engine timer. *)
  mutable remote :
    (time:Time.t -> r1:int -> r2:int -> r3:int -> (unit -> unit) -> unit) option;
  mutable up : bool;
  mutable gen : int;          (* bumped on every up->down transition *)
  stats : stats;
  mutable slots : slot Arena.t; (* in-flight slots; set once, by [create] *)
  idle_pkt : Packet.t; (* what a parked slot holds *)
}

let drop_pkt (_ : Packet.t) = ()

let idle_packet () =
  let a = Ip.endpoint (Ip.v4 0 0 0 0) 0 in
  Packet.make ~flow:(Ip.flow ~src:a ~dst:a) ~size:1 (Packet.Raw "")

(* A cross-shard delivery in flight, in a slot from a domain-local pool:
   the sending lane takes it, and the lane that runs the delivery puts it
   back in its own domain's pool (an adoption when the two differ). The
   slot owns its delivery closure, which [post_remote] hands the mailbox.
   The pool lives as long as its domain, so a parked slot holds its own
   idle packet and [drop_pkt], never what it last carried: a finished
   run's hosts and routers stay collectable. The key is lazy only so
   that a slot's closure can name it; it is forced below, as the module
   initialises, before any lane runs. *)
type trunk = {
  mutable tr_pkt : Packet.t;
  mutable tr_dst : Packet.t -> unit;
  tr_idle : Packet.t; (* what the slot holds while parked *)
  tr_run : unit -> unit; (* [deliver_trunk] of this slot *)
}

let rec trunk_key = lazy (Domain.DLS.new_key (fun () -> Arena.create new_trunk))

(* Cold: a pool miss builds the slot and its closure, once. *)
and new_trunk () =
  let idle = idle_packet () in
  let rec s =
    {
      tr_pkt = idle;
      tr_dst = drop_pkt;
      tr_idle = idle;
      tr_run = (fun () -> deliver_trunk s);
    }
  in
  s

and deliver_trunk s =
  let pkt = s.tr_pkt and dst = s.tr_dst in
  s.tr_pkt <- s.tr_idle;
  s.tr_dst <- drop_pkt;
  Arena.put (Domain.DLS.get (Lazy.force trunk_key)) s;
  Smapp_obs.Prof.enter_class Link_delivery "link:deliver";
  dst pkt;
  Smapp_obs.Prof.exit_frame ()
[@@smapp.hot]

let trunk_key = Lazy.force trunk_key

(* Deliver (or drop) one in-flight packet, at its own queue key. A packet
   in flight when the link went down is gone for good ([s_gen] mismatch),
   even if the link is back up by its nominal delivery time; it is
   counted dropped at that same instant. *)
let deliver t s =
  let pkt = s.s_pkt and dst = s.s_dst and gen = s.s_gen in
  s.s_pkt <- t.idle_pkt;
  s.s_dst <- drop_pkt;
  Arena.put t.slots s;
  if t.gen <> gen then begin
    t.stats.dropped <- t.stats.dropped + 1;
    Packet.free pkt
  end
  else begin
    Smapp_obs.Prof.enter_class Link_delivery "link:deliver";
    t.stats.delivered <- t.stats.delivered + 1;
    t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
    dst pkt;
    Smapp_obs.Prof.exit_frame ()
  end
[@@smapp.hot]

(* Cold: a pool miss builds the slot and its delivery closure, once for
   the slot's lifetime. *)
let new_slot t () =
  let rec s =
    {
      s_pkt = t.idle_pkt;
      s_dst = drop_pkt;
      s_gen = 0;
      s_deliver = (fun () -> deliver t s);
    }
  in
  s

let create engine ~rate_bps ~delay ?(loss = 0.0) ?(queue_capacity = 100) () =
  if rate_bps <= 0.0 then invalid_arg "Link.create: rate must be positive";
  if loss < 0.0 || loss > 1.0 then invalid_arg "Link.create: loss out of [0,1]";
  let t =
    {
      engine;
      uid = Engine.fresh_uid engine;
      rng = Engine.split_rng engine;
      rate_bps;
      delay;
      loss;
      queue_capacity;
      tx_ends = Ring.empty ();
      busy_until = Time.zero;
      dst = None;
      remote = None;
      up = true;
      gen = 0;
      stats = { sent = 0; delivered = 0; lost = 0; dropped = 0; bytes_delivered = 0 };
      slots = Arena.create (fun () -> Bug.fail "Link.create: slot pool not wired");
      idle_pkt = idle_packet ();
    }
  in
  (* the pool builds slots whose closures deliver through [t] itself *)
  t.slots <- Arena.create (new_slot t);
  t

let set_dst t dst = t.dst <- Some dst
let set_remote t post = t.remote <- Some post

let tx_span t size = Time.span_of_bits (size * 8) ~rate_bps:t.rate_bps

(* Drop every transmission that has ended by [now] from the ring's front.
   A transmission ending at [now] has freed its slot for a send at [now],
   whichever event that send runs in. *)
let rec pop_ended ends now =
  if Ring.length ends > 0 && Ring.get ends 0 <= now then begin
    Ring.pop ends;
    pop_ended ends now
  end
[@@smapp.hot]

(* Cross-shard trunk: the delivery is committed now — it is already past
   this shard's causal horizon, so a later [set_up false] cannot recall
   it (unlike a local link's kill-in-flight), and the stats count it at
   commit time, on the sending lane. The destination shard runs
   [dst pkt] at [deliver_at], under [link:deliver] as a local delivery
   does. *)
let post_remote t post pkt dst ~deliver_at ~r1 ~r3 =
  t.stats.delivered <- t.stats.delivered + 1;
  t.stats.bytes_delivered <- t.stats.bytes_delivered + pkt.Packet.size;
  let s = Arena.take (Domain.DLS.get trunk_key) in
  s.tr_pkt <- pkt;
  s.tr_dst <- dst;
  post ~time:deliver_at ~r1 ~r2:t.uid ~r3 s.tr_run
[@@smapp.hot]

let send t pkt =
  t.stats.sent <- t.stats.sent + 1;
  match t.dst with
  | None -> invalid_arg "Link.send: destination not set"
  | Some dst ->
      let now = Engine.now t.engine in
      pop_ended t.tx_ends (Time.to_ns now);
      if (not t.up) || Ring.length t.tx_ends >= t.queue_capacity then begin
        t.stats.dropped <- t.stats.dropped + 1;
        Packet.free pkt
      end
      else begin
        let start = if Time.(t.busy_until > now) then t.busy_until else now in
        let tx_done = Time.add start (tx_span t pkt.Packet.size) in
        t.busy_until <- tx_done;
        t.tx_ends <- Ring.push t.tx_ends (Time.to_ns tx_done);
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
        if lost then begin
          t.stats.lost <- t.stats.lost + 1;
          Packet.free pkt
        end
        else
          match t.remote with
          | Some post -> post_remote t post pkt dst ~deliver_at ~r1 ~r3
          | None ->
              let s = Arena.take t.slots in
              s.s_pkt <- pkt;
              s.s_dst <- dst;
              s.s_gen <- t.gen;
              Engine.schedule_ranked t.engine deliver_at ~r1 ~r2:t.uid ~r3 s.s_deliver
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
