open Smapp_sim

type direction = To_user | To_kernel

type fault_profile = {
  drop : float;
  duplicate : float;
  extra_jitter : Time.span;
  buffer : int;
}

let reliable =
  {
    drop = 0.0;
    duplicate = 0.0;
    extra_jitter = Time.span_zero;
    buffer = max_int;
  }

(* One direction: its messages in flight and their send instants (ns), in
   send order; each crossing schedules [deliver], which takes the front of
   both. *)
type dir_state = {
  dir : direction;
  queue : string Fifo.t;
  mutable sent_at : Ring.t;
  mutable deliver : unit -> unit; (* bound once by [create] *)
  mutable receive : string -> unit;
  mutable sent : int;
  mutable last_arrival : Time.t;
  mutable forced_drops : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable overflowed : int;
}

let fresh_dir dir =
  {
    dir;
    queue = Fifo.create "";
    sent_at = Ring.empty ();
    deliver = ignore;
    receive = ignore;
    sent = 0;
    last_arrival = Time.zero;
    forced_drops = 0;
    dropped = 0;
    duplicated = 0;
    overflowed = 0;
  }

type stats = {
  s_dropped : int;
  s_duplicated : int;
  s_overflowed : int;
  s_crashes : int;
}

(* Observability. Per-direction handles are registered once here; the span
   names "k->u" / "u->k" are what the fig3 trace report sums to decompose
   the userspace reaction-time gap into its two boundary crossings. *)
module Obs = struct
  module M = Smapp_obs.Metrics

  let crossing_k2u =
    M.histogram ~help:"ns spent crossing the netlink boundary"
      ~labels:[ ("dir", "k2u") ] "netlink_crossing_ns"

  let crossing_u2k = M.histogram ~labels:[ ("dir", "u2k") ] "netlink_crossing_ns"

  let dropped_k2u =
    M.counter ~help:"messages lost to injected drops or a dead daemon"
      ~labels:[ ("dir", "k2u") ] "netlink_dropped_total"

  let dropped_u2k = M.counter ~labels:[ ("dir", "u2k") ] "netlink_dropped_total"

  let duplicated_k2u =
    M.counter ~help:"messages duplicated in flight" ~labels:[ ("dir", "k2u") ]
      "netlink_duplicated_total"

  let duplicated_u2k = M.counter ~labels:[ ("dir", "u2k") ] "netlink_duplicated_total"

  let enobufs_k2u =
    M.counter ~help:"messages lost to a full socket buffer (ENOBUFS)"
      ~labels:[ ("dir", "k2u") ] "netlink_enobufs_total"

  let enobufs_u2k = M.counter ~labels:[ ("dir", "u2k") ] "netlink_enobufs_total"

  let crashes =
    M.counter ~help:"path-manager daemon crashes injected" "netlink_daemon_crashes_total"

  let crossing = function To_user -> crossing_k2u | To_kernel -> crossing_u2k
  let dropped = function To_user -> dropped_k2u | To_kernel -> dropped_u2k
  let duplicated = function To_user -> duplicated_k2u | To_kernel -> duplicated_u2k
  let enobufs = function To_user -> enobufs_k2u | To_kernel -> enobufs_u2k
  let span_name = function To_user -> "k->u" | To_kernel -> "u->k"
end

type t = {
  engine : Engine.t;
  rng : Rng.t;
  fault_rng : Rng.t;
  latency : Time.span;
  mutable stress : float;
  mutable profile : fault_profile;
  to_user_dir : dir_state;
  to_kernel_dir : dir_state;
  mutable user_up : bool;
  mutable crashes : int;
  mutable on_user_restart : unit -> unit;
}

let set_stress_factor t f = if f <= 0.0 then invalid_arg "stress factor" else t.stress <- f

(* each crossing jitters +/-30% around the calibrated mean, modelling scheduler wake-up
   noise; [Rng.float] and [Time]'s conversions written out: no float crosses a call *)
let crossing t =
  let jitter = 0.7 +. (float_of_int (Rng.bits53 t.rng) *. 0x1p-53 *. 0.6) in
  let s = float_of_int (Time.span_to_ns t.latency) /. 1e9 *. t.stress *. jitter in
  Time.span_ns (int_of_float (Float.round (s *. 1e9)))

let on_kernel_receive t f = t.to_kernel_dir.receive <- f
let on_user_receive t f = t.to_user_dir.receive <- f
let on_user_restart t f = t.on_user_restart <- f

let set_user_up t up =
  if t.user_up && not up then begin
    t.user_up <- false;
    t.crashes <- t.crashes + 1;
    Smapp_obs.Metrics.incr Obs.crashes;
    Smapp_obs.Trace.instant ~cat:"netlink" "daemon-crash"
  end
  else if (not t.user_up) && up then begin
    t.user_up <- true;
    Smapp_obs.Trace.instant ~cat:"netlink" "daemon-restart";
    t.on_user_restart ()
  end

let set_fault_profile t profile = t.profile <- profile

let inject_drop t dir n =
  let st = if dir = To_user then t.to_user_dir else t.to_kernel_dir in
  st.forced_drops <- st.forced_drops + n

(* A message arrives: its crossing latency (it is delivered at its arrival
   time) and span. Gated here: the latency float would otherwise be boxed
   per message with observability off. *)
let observe_crossing t dir ~sent_ns =
  if Atomic.get Smapp_obs.Scope.enabled then begin
    Smapp_obs.Metrics.observe (Obs.crossing dir)
      (float_of_int (Time.to_ns (Engine.now t.engine) - sent_ns));
    Smapp_obs.Trace.complete ~cat:"netlink" ~start_ns:sent_ns (Obs.span_name dir)
  end

let drop st name =
  st.dropped <- st.dropped + 1;
  Smapp_obs.Metrics.incr (Obs.dropped st.dir);
  Smapp_obs.Trace.instant ~cat:"netlink" name

(* The arrival of [st]'s oldest message in flight. *)
let deliver t st () =
  Smapp_obs.Prof.enter_class Netlink "netlink:crossing";
  let sent_ns = Ring.get st.sent_at 0 in
  Ring.pop st.sent_at;
  let bytes = Fifo.pop st.queue in
  (* the daemon may have died while an event was in flight *)
  if st.dir = To_kernel || t.user_up then begin
    observe_crossing t st.dir ~sent_ns;
    st.receive bytes
  end
  else drop st "drop-in-flight";
  Smapp_obs.Prof.exit_frame ()
[@@smapp.hot]

(* One crossing of the boundary. A netlink socket is FIFO: the arrival time
   is clamped to never precede an earlier message in the same direction, so
   jitter widens spacing but cannot reorder. *)
let schedule_delivery t st bytes =
  let extra =
    if Time.compare_span t.profile.extra_jitter Time.span_zero > 0 then
      Rng.uniform_span t.fault_rng t.profile.extra_jitter
    else Time.span_zero
  in
  let now = Engine.now t.engine in
  let arrival = Time.add now (Time.span_add (crossing t) extra) in
  let arrival = if Time.( < ) arrival st.last_arrival then st.last_arrival else arrival in
  st.last_arrival <- arrival;
  Fifo.push st.queue bytes;
  st.sent_at <- Ring.push st.sent_at (Time.to_ns now);
  Engine.schedule t.engine arrival st.deliver

let send t st bytes =
  st.sent <- st.sent + 1;
  if not t.user_up then drop st "drop"
    (* daemon down: events vanish, and nothing real is sending commands *)
  else if st.forced_drops > 0 then begin
    st.forced_drops <- st.forced_drops - 1;
    drop st "drop"
  end
  else if t.profile.drop > 0.0 && Rng.bernoulli t.fault_rng t.profile.drop then drop st "drop"
  else if Fifo.length st.queue >= t.profile.buffer then begin
    (* ENOBUFS: the socket buffer is full, the message is lost *)
    st.overflowed <- st.overflowed + 1;
    Smapp_obs.Metrics.incr (Obs.enobufs st.dir);
    Smapp_obs.Trace.instant ~cat:"netlink" "enobufs"
  end
  else begin
    schedule_delivery t st bytes;
    if t.profile.duplicate > 0.0 && Rng.bernoulli t.fault_rng t.profile.duplicate then begin
      st.duplicated <- st.duplicated + 1;
      Smapp_obs.Metrics.incr (Obs.duplicated st.dir);
      Smapp_obs.Trace.instant ~cat:"netlink" "dup";
      if Fifo.length st.queue < t.profile.buffer then schedule_delivery t st bytes
    end
  end
[@@smapp.hot]

let default_latency = Time.span_us 14

let create engine ?(latency = default_latency) () =
  let t =
    {
      engine;
      rng = Engine.split_rng engine;
      fault_rng = Engine.split_rng engine;
      latency;
      stress = 1.0;
      profile = reliable;
      to_user_dir = fresh_dir To_user;
      to_kernel_dir = fresh_dir To_kernel;
      user_up = true;
      crashes = 0;
      on_user_restart = (fun () -> ());
    }
  in
  List.iter (fun st -> st.deliver <- deliver t st) [ t.to_user_dir; t.to_kernel_dir ];
  t

let kernel_send t bytes = send t t.to_user_dir bytes
let user_send t bytes = send t t.to_kernel_dir bytes
let kernel_to_user_messages t = t.to_user_dir.sent
let user_to_kernel_messages t = t.to_kernel_dir.sent

let stats t =
  let a = t.to_user_dir and b = t.to_kernel_dir in
  {
    s_dropped = a.dropped + b.dropped;
    s_duplicated = a.duplicated + b.duplicated;
    s_overflowed = a.overflowed + b.overflowed;
    s_crashes = t.crashes;
  }
