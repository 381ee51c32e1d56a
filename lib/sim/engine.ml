(* The shared no-op callback: an event whose callback is physically [nop]
   has been cancelled or already fired. Using a sentinel instead of an
   option shaves the [Some] box off every scheduled event. *)
let nop () = ()

(* The wheel keys each event by its time, so the record does not carry
   it: [run] takes the clock from the [next_time] it read. A timer's
   event also carries the timer's lazy state, so the event needs no
   pointer back to its timer, and a cancelled timer's owner is not
   reachable from the wheel. *)
type event = {
  mutable ev_callback : unit -> unit; (* == [nop] once cancelled or fired *)
  mutable ev_gen : int; (* bumped when the event fires or is cancelled *)
  mutable ev_filed : int; (* ns key a timer's event is filed under *)
  mutable ev_due : int; (* ns deadline the timer has moved to ... *)
  mutable ev_seq : int; (* ... and its reserved wheel seq; -1 when not moved,
                            as always in the pool *)
}

(* A timer is one owner's handle, built once with its callback and armed
   by [set] as often as the owner likes. It is armed while the event it
   last filed still carries the generation [t_gen] recorded then. *)
and timer = {
  t_engine : t;
  t_fn : unit -> unit;
  mutable t_ev : event; (* the last event filed; [ev_dummy] before any *)
  mutable t_gen : int; (* [t_ev]'s generation while armed; -1 once cancelled *)
}

and t = {
  mutable clock : Time.t;
  queue : event Timer_wheel.t;
  ev_dummy : event; (* the wheel's empty-queue sentinel *)
  ev_pool : event Arena.t; (* fired events recycle through here *)
  mutable root_rng : Rng.t; (* swapped once by [Shard.seal] on sharded runs *)
  mutable uids : int ref; (* construction-order ids; shared across a group *)
  mutable live : int; (* queued events not yet cancelled *)
  mutable executed : int; (* callbacks run over the engine's lifetime *)
  mutable last_dispatch : Time.t; (* time of the latest executed callback *)
  mutable tie_break : tie_break;
  clock_fn : unit -> int; (* the trace-clock closure [create] installed *)
  prev_clock : unit -> int; (* the scope's clock before [create] ran *)
}

and tie_break = Fifo | Shuffle of Rng.t

(* Observability handles. Updates are load-and-branch no-ops until
   [Smapp_obs.Metrics.enabled] is set; instrumentation must only *read*
   engine state so that turning it on cannot change simulation results. *)
let m_dispatched =
  Smapp_obs.Metrics.counter ~help:"callbacks dispatched by the event loop"
    "sim_events_dispatched_total"

let m_queue_depth =
  Smapp_obs.Metrics.gauge ~help:"live events in the queue after each dispatch"
    "sim_queue_depth"

let m_horizon =
  Smapp_obs.Metrics.histogram
    ~help:"ns between scheduling an event and its deadline" "sim_schedule_horizon_ns"

let fresh_event () = { ev_callback = nop; ev_gen = 0; ev_filed = 0; ev_due = 0; ev_seq = -1 }

let create ?(seed = 42) () =
  let ev_dummy = fresh_event () in
  let rec t =
    {
      clock = Time.zero;
      queue = Timer_wheel.create ~dummy:ev_dummy;
      ev_dummy;
      ev_pool = Arena.create fresh_event;
      root_rng = Rng.of_int seed;
      uids = ref 0;
      live = 0;
      executed = 0;
      last_dispatch = Time.zero;
      tie_break = Fifo;
      clock_fn = (fun () -> Time.to_ns t.clock);
      prev_clock = Smapp_obs.Trace.current_clock ();
    }
  in
  (* Traces are stamped with this engine's virtual time. The binding is
     scoped: it replaces the current {!Smapp_obs.Trace.Scope}'s clock and
     remembers the previous one, so [retire] (or creating each engine
     inside its own scope, as [Shard] does) keeps several live engines
     from clobbering each other. *)
  Smapp_obs.Trace.set_clock t.clock_fn;
  t

(* If this engine's clock is still the one installed in the current scope,
   put the previous binding back; if another engine has since taken over,
   leave it alone. *)
let retire t =
  if Smapp_obs.Trace.current_clock () == t.clock_fn then
    Smapp_obs.Trace.set_clock t.prev_clock

let set_tie_break t policy = t.tie_break <- policy

let now t = t.clock
let rng t = t.root_rng
let split_rng t = Rng.split t.root_rng

(* Sharding support: [Shard] points every member engine at one shared
   construction root, then seals each with a private runtime root. *)
let adopt_rng t rng = t.root_rng <- rng

(* Construction-order component ids, used as deterministic tie-rank keys
   (e.g. one per link). [Shard] aliases every member engine to shard 0's
   counter, so ids follow the one program-order construction sequence and
   are identical for every shard count. *)
let fresh_uid t =
  let r = t.uids in
  incr r;
  !r

let adopt_uids t ~from = t.uids <- from.uids

let next_event_time t =
  let ns = Timer_wheel.next_time t.queue in
  if ns < 0 then None else Some (Time.of_ns ns)

let last_event_time t = t.last_dispatch

let schedule_past t when_ =
  invalid_arg
    (Format.asprintf "Engine.at: %a is before now (%a)" Time.pp when_ Time.pp t.clock)

let observe_horizon t ns =
  (* the enabled check lives here, not just inside [observe]: the float
     argument would otherwise be boxed per schedule even when disabled *)
  if Atomic.get Smapp_obs.Metrics.enabled then
    Smapp_obs.Metrics.observe m_horizon (float_of_int (ns - Time.to_ns t.clock))

(* Fire-and-forget scheduling: one pooled event record, the rank as
   plain ints, no closure and no timer handle. Consumes the same seq/rank
   stream as [set], so switching a call site between the two never
   reorders dispatch. *)
let schedule_ranked t when_ ~r1 ~r2 ~r3 f =
  if Time.(when_ < t.clock) then schedule_past t when_;
  let ev = Arena.take t.ev_pool in
  ev.ev_callback <- f;
  Timer_wheel.add_ranked t.queue ~time:(Time.to_ns when_) ~r1 ~r2 ~r3 ev;
  t.live <- t.live + 1;
  observe_horizon t (Time.to_ns when_)
[@@smapp.hot]

let schedule t when_ f = schedule_ranked t when_ ~r1:0 ~r2:0 ~r3:0 f [@@smapp.hot]

let timer t f = { t_engine = t; t_fn = f; t_ev = t.ev_dummy; t_gen = -1 }

let timer_active tm = tm.t_ev.ev_gen = tm.t_gen

(* Leave the armed event in the wheel, dead: it drops the callback, and
   with it the owner, and pops without a dispatch. *)
let disarm tm =
  if timer_active tm then begin
    let ev = tm.t_ev in
    ev.ev_callback <- nop;
    ev.ev_gen <- ev.ev_gen + 1;
    ev.ev_seq <- -1;
    tm.t_engine.live <- tm.t_engine.live - 1
  end

(* Each [set] takes the wheel seq a fresh event would take, so the timer
   dispatches exactly as a cancel plus a new [at] would. A deadline at or
   after the armed event's key only records the new key: the event
   re-files itself under it when it pops ([run]). An earlier deadline
   disarms the event and files a new one. *)
let set tm when_ =
  let t = tm.t_engine in
  if Time.(when_ < t.clock) then schedule_past t when_;
  let ns = Time.to_ns when_ in
  let ev = tm.t_ev in
  if timer_active tm && ns >= ev.ev_filed then begin
    ev.ev_due <- ns;
    ev.ev_seq <- Timer_wheel.reserve t.queue
  end
  else begin
    disarm tm;
    let ev = Arena.take t.ev_pool in
    ev.ev_callback <- tm.t_fn;
    ev.ev_filed <- ns;
    Timer_wheel.add_ranked t.queue ~time:ns ~r1:0 ~r2:0 ~r3:0 ev;
    t.live <- t.live + 1;
    tm.t_ev <- ev;
    tm.t_gen <- ev.ev_gen
  end;
  observe_horizon t ns
[@@smapp.hot]

let cancel tm =
  disarm tm;
  tm.t_gen <- -1

let at t when_ f =
  let tm = timer t f in
  set tm when_;
  tm

let after t d f =
  let d = Time.span_max d Time.span_zero in
  at t (Time.add t.clock d) f

(* The handle re-arms itself after each tick, unless [f] cancelled it. *)
let every t ?start period f =
  let period = Time.span_max period Time.span_zero in
  let rec tm =
    {
      t_engine = t;
      t_fn =
        (fun () ->
          match f () with
          | `Continue when tm.t_gen >= 0 -> set tm (Time.add t.clock period)
          | `Continue | `Stop -> ());
      t_ev = t.ev_dummy;
      t_gen = -1;
    }
  in
  let start = Option.value start ~default:period in
  set tm (Time.add t.clock (Time.span_max start Time.span_zero));
  tm

(* Under [Shuffle], drain the whole tie group at the head timestamp and pick
   uniformly; the remainder is re-queued at the same time. Sequential uniform
   picks yield a uniform interleaving of the group, including events the
   executing callbacks schedule back at the same instant — exactly the
   delivery-order races the {!Smapp_check.Explore} harness probes. *)
let pop_shuffled t rng =
  match Timer_wheel.pop t.queue with
  | None -> None
  | Some (time, ev) ->
      let group = ref [ ev ] in
      let draining = ref true in
      while !draining do
        match Timer_wheel.peek t.queue with
        | Some (time', _) when time' = time -> (
            match Timer_wheel.pop t.queue with
            | Some (_, ev') -> group := ev' :: !group
            | None -> draining := false)
        | _ -> draining := false
      done;
      let arr = Array.of_list (List.rev !group) in
      let i = Rng.int rng (Array.length arr) in
      Array.iteri (fun j ev' -> if j <> i then Timer_wheel.add t.queue ~time ev') arr;
      Some arr.(i)

let run ?until t =
  let continue = ref true in
  while !continue do
    let next_ns = Timer_wheel.next_time t.queue in
    if next_ns < 0 then continue := false
    else
      match until with
      | Some limit when next_ns > Time.to_ns limit ->
          t.clock <- limit;
          continue := false
      | _ ->
          (* under [Shuffle] the taken event may differ from the peeked
             one, but shares its timestamp *)
          let ev =
            match t.tie_break with
            | Fifo -> Timer_wheel.take t.queue
            | Shuffle rng -> (
                match pop_shuffled t rng with None -> t.ev_dummy | Some ev -> ev)
          in
          if ev == t.ev_dummy then continue := false
          else begin
            let f = ev.ev_callback in
            if f == nop then Arena.put t.ev_pool ev (* cancelled: already uncounted *)
            else if ev.ev_seq >= 0 then begin
              (* a timer moved later: file it under the key its last [set]
                 took, without a dispatch *)
              Timer_wheel.add_reserved t.queue ~time:ev.ev_due ~seq:ev.ev_seq ev;
              ev.ev_filed <- ev.ev_due;
              ev.ev_seq <- -1
            end
            else begin
              ev.ev_callback <- nop;
              ev.ev_gen <- ev.ev_gen + 1;
              t.live <- t.live - 1;
              t.clock <- Time.of_ns next_ns;
              t.last_dispatch <- t.clock;
              t.executed <- t.executed + 1;
              (* recycle before dispatch: the callback's own scheduling may
                 reuse the slot, which is fine — every field is dead here *)
              Arena.put t.ev_pool ev;
              Smapp_obs.Metrics.incr m_dispatched;
              if Atomic.get Smapp_obs.Metrics.enabled then
                Smapp_obs.Metrics.set m_queue_depth (float_of_int t.live);
              if Atomic.get Smapp_obs.Prof.enabled then begin
                Smapp_obs.Prof.dispatch_begin ();
                f ();
                Smapp_obs.Prof.dispatch_end ()
              end
              else f ()
            end
          end
  done;
  match until with
  | Some limit when Timer_wheel.is_empty t.queue && Time.(t.clock < limit) -> t.clock <- limit
  | _ -> ()
[@@smapp.hot]

let events_executed t = t.executed
