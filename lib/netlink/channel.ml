open Smapp_sim

type direction = To_user | To_kernel

type fault_profile = {
  drop : float;
  duplicate : float;
  extra_jitter : Time.span;
  crash_rate : float;
  crash_duration : Time.span;
  buffer : int;
}

let reliable =
  {
    drop = 0.0;
    duplicate = 0.0;
    extra_jitter = Time.span_zero;
    crash_rate = 0.0;
    crash_duration = Time.span_zero;
    buffer = max_int;
  }

type dir_state = {
  mutable in_flight : int;
  mutable last_arrival : Time.t;
  mutable forced_drops : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable overflowed : int;
}

let fresh_dir () =
  {
    in_flight = 0;
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
  mutable to_kernel : string -> unit;
  mutable to_user : string -> unit;
  mutable k2u : int;
  mutable u2k : int;
  mutable profile : fault_profile;
  to_user_dir : dir_state;
  to_kernel_dir : dir_state;
  mutable user_up : bool;
  mutable crashes : int;
  mutable on_user_restart : unit -> unit;
  mutable crash_timer : Engine.timer option;
}

let default_latency = Time.span_us 14

let create engine ?(latency = default_latency) () =
  {
    engine;
    rng = Engine.split_rng engine;
    fault_rng = Engine.split_rng engine;
    latency;
    stress = 1.0;
    to_kernel = (fun _ -> ());
    to_user = (fun _ -> ());
    k2u = 0;
    u2k = 0;
    profile = reliable;
    to_user_dir = fresh_dir ();
    to_kernel_dir = fresh_dir ();
    user_up = true;
    crashes = 0;
    on_user_restart = (fun () -> ());
    crash_timer = None;
  }

let set_stress_factor t f = if f <= 0.0 then invalid_arg "stress factor" else t.stress <- f

(* each crossing jitters +/-30% around the calibrated mean, modelling
   scheduler wake-up noise *)
let crossing t =
  let jitter = 0.7 +. Rng.float t.rng 0.6 in
  Time.span_of_float_s (Time.span_to_float_s t.latency *. t.stress *. jitter)

let on_kernel_receive t f = t.to_kernel <- f
let on_user_receive t f = t.to_user <- f
let on_user_restart t f = t.on_user_restart <- f

let dir_state t = function To_user -> t.to_user_dir | To_kernel -> t.to_kernel_dir

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

(* profile-driven crash/restart windows, paced by an exponential clock so the
   whole schedule is a pure function of the sim seed *)
let rec schedule_crashes t =
  if t.profile.crash_rate > 0.0 then
    t.crash_timer <-
      Some
        (Engine.after t.engine
           (Time.span_of_float_s (Rng.exponential t.fault_rng (1.0 /. t.profile.crash_rate)))
           (fun () ->
             set_user_up t false;
             t.crash_timer <-
               Some
                 (Engine.after t.engine t.profile.crash_duration (fun () ->
                      set_user_up t true;
                      schedule_crashes t))))

let set_fault_profile t profile =
  (match t.crash_timer with Some timer -> Engine.cancel timer | None -> ());
  t.crash_timer <- None;
  t.profile <- profile;
  schedule_crashes t

let inject_drop t dir n = (dir_state t dir).forced_drops <- (dir_state t dir).forced_drops + n

(* A message arrives: its crossing latency (it is delivered at its arrival
   time) and span. Gated here: the latency float would otherwise be boxed
   per message with observability off. *)
let observe_crossing t dir ~sent_ns =
  if Atomic.get Smapp_obs.Scope.enabled then begin
    Smapp_obs.Metrics.observe (Obs.crossing dir)
      (float_of_int (Time.to_ns (Engine.now t.engine) - sent_ns));
    Smapp_obs.Trace.complete ~cat:"netlink" ~start_ns:sent_ns (Obs.span_name dir)
  end

(* One crossing of the boundary. A netlink socket is FIFO: the arrival time
   is clamped to never precede an earlier message in the same direction, so
   jitter widens spacing but cannot reorder. *)
let schedule_delivery t dir bytes =
  let st = dir_state t dir in
  let extra =
    if Time.compare_span t.profile.extra_jitter Time.span_zero > 0 then
      Rng.uniform_span t.fault_rng t.profile.extra_jitter
    else Time.span_zero
  in
  let sent_ns = Time.to_ns (Engine.now t.engine) in
  let arrival = Time.add (Engine.now t.engine) (Time.span_add (crossing t) extra) in
  let arrival = if Time.( < ) arrival st.last_arrival then st.last_arrival else arrival in
  st.last_arrival <- arrival;
  st.in_flight <- st.in_flight + 1;
  Engine.schedule t.engine arrival (fun () ->
      Smapp_obs.Prof.enter_class Netlink "netlink:crossing";
      st.in_flight <- st.in_flight - 1;
      (match dir with
      | To_kernel ->
          observe_crossing t dir ~sent_ns;
          t.to_kernel bytes
      | To_user ->
          (* the daemon may have died while the message was in flight *)
          if t.user_up then begin
            observe_crossing t dir ~sent_ns;
            t.to_user bytes
          end
          else begin
            st.dropped <- st.dropped + 1;
            Smapp_obs.Metrics.incr (Obs.dropped dir);
            Smapp_obs.Trace.instant ~cat:"netlink" "drop-in-flight"
          end);
      Smapp_obs.Prof.exit_frame ())

let send t dir bytes =
  let st = dir_state t dir in
  let drop () =
    st.dropped <- st.dropped + 1;
    Smapp_obs.Metrics.incr (Obs.dropped dir);
    Smapp_obs.Trace.instant ~cat:"netlink" "drop"
  in
  if not t.user_up then drop ()
    (* daemon down: events vanish, and nothing real is sending commands *)
  else if st.forced_drops > 0 then begin
    st.forced_drops <- st.forced_drops - 1;
    drop ()
  end
  else if t.profile.drop > 0.0 && Rng.bernoulli t.fault_rng t.profile.drop then drop ()
  else if st.in_flight >= t.profile.buffer then begin
    (* ENOBUFS: the socket buffer is full, the message is lost *)
    st.overflowed <- st.overflowed + 1;
    Smapp_obs.Metrics.incr (Obs.enobufs dir);
    Smapp_obs.Trace.instant ~cat:"netlink" "enobufs"
  end
  else begin
    schedule_delivery t dir bytes;
    if t.profile.duplicate > 0.0 && Rng.bernoulli t.fault_rng t.profile.duplicate then begin
      st.duplicated <- st.duplicated + 1;
      Smapp_obs.Metrics.incr (Obs.duplicated dir);
      Smapp_obs.Trace.instant ~cat:"netlink" "dup";
      if st.in_flight < t.profile.buffer then schedule_delivery t dir bytes
    end
  end

let kernel_send t bytes =
  t.k2u <- t.k2u + 1;
  send t To_user bytes

let user_send t bytes =
  t.u2k <- t.u2k + 1;
  send t To_kernel bytes

let kernel_to_user_messages t = t.k2u
let user_to_kernel_messages t = t.u2k

let stats t =
  let a = t.to_user_dir and b = t.to_kernel_dir in
  {
    s_dropped = a.dropped + b.dropped;
    s_duplicated = a.duplicated + b.duplicated;
    s_overflowed = a.overflowed + b.overflowed;
    s_crashes = t.crashes;
  }
