(* The shared no-op callback: an event whose callback is physically [nop]
   has been cancelled or already fired. Using a sentinel instead of an
   option shaves the [Some] box off every scheduled event. *)
let nop () = ()

type event = {
  mutable ev_time : Time.t;
  mutable ev_callback : unit -> unit; (* == [nop] once cancelled or fired *)
  mutable ev_owner : timer option; (* set when a cancellable handle is attached *)
}

(* A timer is a handle over the currently armed event. Periodic timers
   ([every]) re-arm by replacing [current]; cancelling the handle always
   cancels whichever event is armed right now. The armed event points
   back at its handle ([ev_owner]) so the dispatch loop can clear
   [current] without the per-event wrapper closure [at] used to build. *)
and timer = { t_engine : t; mutable t_current : event option }

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

let fresh_event () = { ev_time = Time.zero; ev_callback = nop; ev_owner = None }

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

(* The spine all scheduling funnels through: one pooled event record, the
   rank as plain ints, no closure. *)
let schedule_ranked_event t when_ ~r1 ~r2 ~r3 f =
  if Time.(when_ < t.clock) then schedule_past t when_;
  let ev = Arena.take t.ev_pool in
  ev.ev_time <- when_;
  ev.ev_callback <- f;
  ev.ev_owner <- None;
  Timer_wheel.add_ranked t.queue ~time:(Time.to_ns when_) ~r1 ~r2 ~r3 ev;
  t.live <- t.live + 1;
  (* the enabled check lives here, not just inside [observe]: the float
     argument would otherwise be boxed per schedule even when disabled *)
  if Atomic.get Smapp_obs.Metrics.enabled then
    Smapp_obs.Metrics.observe m_horizon
      (float_of_int (Time.to_ns when_ - Time.to_ns t.clock));
  ev
[@@smapp.hot]

(* Fire-and-forget scheduling: no timer handle, so no timer record per
   event. Consumes the same seq/rank stream as [at], so switching a call
   site between the two never reorders dispatch. *)
let schedule t when_ f =
  ignore (schedule_ranked_event t when_ ~r1:0 ~r2:0 ~r3:0 f : event)
[@@smapp.hot]

let schedule_ranked t when_ ~r1 ~r2 ~r3 f =
  ignore (schedule_ranked_event t when_ ~r1 ~r2 ~r3 f : event)
[@@smapp.hot]

let at t when_ f =
  let ev = schedule_ranked_event t when_ ~r1:0 ~r2:0 ~r3:0 f in
  let timer = { t_engine = t; t_current = Some ev } in
  ev.ev_owner <- Some timer;
  timer
[@@smapp.hot]

let after t d f =
  let d = Time.span_max d Time.span_zero in
  at t (Time.add t.clock d) f

let cancel timer =
  match timer.t_current with
  | None -> ()
  | Some ev ->
      if ev.ev_callback != nop then begin
        ev.ev_callback <- nop;
        ev.ev_owner <- None;
        timer.t_engine.live <- timer.t_engine.live - 1
      end;
      timer.t_current <- None

let timer_active timer =
  match timer.t_current with None -> false | Some ev -> ev.ev_callback != nop

let every t ?start period f =
  let start = Option.value start ~default:period in
  let timer = { t_engine = t; t_current = None } in
  let rec arm delay =
    let ev =
      schedule_ranked_event t
        (Time.add t.clock (Time.span_max delay Time.span_zero))
        ~r1:0 ~r2:0 ~r3:0
        (fun () -> match f () with `Continue -> arm period | `Stop -> ())
    in
    ev.ev_owner <- Some timer;
    timer.t_current <- Some ev
  in
  arm start;
  timer

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
            else begin
              ev.ev_callback <- nop;
              (match ev.ev_owner with
              | None -> ()
              | Some tm ->
                  tm.t_current <- None;
                  ev.ev_owner <- None);
              t.live <- t.live - 1;
              t.clock <- ev.ev_time;
              t.last_dispatch <- ev.ev_time;
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
