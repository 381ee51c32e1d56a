(* The shared no-op callback: a pooled event parks with it, so a free
   record keeps no closure alive. *)
let nop () = ()

(* One queued callback and its key. The queue is a binary min-heap of
   these records ordered by (time, r1, r2, r3, seq). Each record knows its
   own slot, so a timer re-keys or leaves the heap where it is. *)
type event = {
  mutable ev_time : int; (* ns *)
  mutable ev_r1 : int;
  mutable ev_r2 : int;
  mutable ev_r3 : int;
  mutable ev_seq : int;
  mutable ev_pos : int; (* slot in the heap while queued; [idle] or [fired] *)
  mutable ev_fn : unit -> unit;
  ev_pooled : bool; (* a [schedule] record, back to the pool once popped *)
}

(* A timer is one owner's handle and the event record it owns for life,
   built once and armed by [set] as often as the owner likes. *)
and timer = { t_engine : t; t_ev : event }

and t = {
  mutable clock : Time.t;
  mutable heap : event array; (* slots [0, size) form the heap *)
  mutable size : int;
  mutable next_seq : int; (* insertion counter: the last key component *)
  vacant : event; (* fills every slot at or past [size] *)
  ev_pool : event Arena.t; (* [schedule]'s records recycle through here *)
  mutable root_rng : Rng.t; (* swapped once by [Shard.seal] on sharded runs *)
  mutable uids : int ref; (* construction-order ids; shared across a group *)
  mutable executed : int; (* callbacks run over the engine's lifetime *)
  mutable last_dispatch : Time.t; (* time of the latest executed callback *)
  choose : (int -> int) option; (* picks within a tie group; FIFO without *)
  clock_fn : unit -> int; (* the trace clock [create] and [run] install *)
}

(* [ev_pos] of an event out of the heap: [fired] from the pop that
   dispatched it until the next [set] or [cancel], [idle] otherwise. *)
let idle = -1
let fired = -2

(* The heap array's starting room; it doubles when full. Set-up queues a
   scenario's launches before anything runs, and this many spares most
   scenarios a regrowth there. *)
let initial_slots = 1024

(* Observability handles. Updates are load-and-branch no-ops until
   [Smapp_obs.Scope.enabled] is set; instrumentation must only *read*
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

let new_event ~pooled fn =
  { ev_time = 0; ev_r1 = 0; ev_r2 = 0; ev_r3 = 0; ev_seq = 0; ev_pos = idle; ev_fn = fn;
    ev_pooled = pooled }

let pooled_event () = new_event ~pooled:true nop

let create ?(seed = 42) ?choose () =
  let vacant = new_event ~pooled:false nop in
  let rec t =
    {
      clock = Time.zero;
      heap = Array.make initial_slots vacant;
      size = 0;
      next_seq = 0;
      vacant;
      ev_pool = Arena.create pooled_event;
      root_rng = Rng.of_int seed;
      uids = ref 0;
      executed = 0;
      last_dispatch = Time.zero;
      choose;
      clock_fn = (fun () -> Time.to_ns t.clock);
    }
  in
  (* Traces are stamped with this engine's virtual time: set-up records
     under the clock of the engine created last, and [run] installs its
     own engine's clock, so events always carry the time of the engine
     that dispatched them. *)
  Smapp_obs.Trace.set_clock t.clock_fn;
  t

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

let next_event_ns t = if t.size = 0 then max_int else t.heap.(0).ev_time
let last_event_time t = t.last_dispatch

(* --- the heap ---------------------------------------------------------------- *)

(* [a]'s key sorts before [b]'s. Sequence numbers are unique, so two
   records never tie. *)
let before a b =
  a.ev_time < b.ev_time
  || a.ev_time = b.ev_time
     && (a.ev_r1 < b.ev_r1
        || a.ev_r1 = b.ev_r1
           && (a.ev_r2 < b.ev_r2
              || a.ev_r2 = b.ev_r2
                 && (a.ev_r3 < b.ev_r3 || (a.ev_r3 = b.ev_r3 && a.ev_seq < b.ev_seq))))
[@@smapp.hot]

(* Store [ev] in slot [i], which is a hole: each loop below moves the hole
   and writes [ev] once, where its key belongs. The loops are top-level
   functions taking the engine: a local [let rec] capturing it would
   allocate a closure per call (non-flambda ocamlopt). *)
let place t ev i =
  t.heap.(i) <- ev;
  ev.ev_pos <- i
[@@smapp.hot]

let rec sift_up t ev i =
  if i = 0 then place t ev 0
  else
    let p = (i - 1) / 2 in
    let pe = t.heap.(p) in
    if before ev pe then begin
      place t pe i;
      sift_up t ev p
    end
    else place t ev i
[@@smapp.hot]

let rec sift_down t ev i =
  let l = (2 * i) + 1 in
  if l >= t.size then place t ev i
  else
    let c = if l + 1 < t.size && before t.heap.(l + 1) t.heap.(l) then l + 1 else l in
    let ce = t.heap.(c) in
    if before ce ev then begin
      place t ce i;
      sift_down t ev c
    end
    else place t ev i
[@@smapp.hot]

(* Restore the heap order around slot [i], which [ev] has just taken
   with a key of any order against its neighbours. *)
let fix t ev i =
  if i > 0 && before ev t.heap.((i - 1) / 2) then sift_up t ev i else sift_down t ev i
[@@smapp.hot]

let grow t =
  let heap = Array.make (2 * Array.length t.heap) t.vacant in
  Array.blit t.heap 0 heap 0 t.size;
  t.heap <- heap

let push t ev =
  if t.size = Array.length t.heap then grow t;
  t.size <- t.size + 1;
  sift_up t ev (t.size - 1)
[@@smapp.hot]

(* Take a queued event out of the heap; the last slot's event fills the
   hole. The vacated slot drops its reference, so nothing out of the heap
   stays reachable from it. *)
let remove t ev =
  let n = t.size - 1 in
  let last = t.heap.(n) in
  t.heap.(n) <- t.vacant;
  t.size <- n;
  if last != ev then fix t last ev.ev_pos;
  ev.ev_pos <- idle
[@@smapp.hot]

(* --- scheduling -------------------------------------------------------------- *)

let schedule_past t when_ =
  invalid_arg
    (Format.asprintf "Engine.at: %a is before now (%a)" Time.pp when_ Time.pp t.clock)

let observe_horizon t ns =
  (* the enabled check lives here, not just inside [observe]: the float
     argument would otherwise be boxed per schedule even when disabled *)
  if Atomic.get Smapp_obs.Scope.enabled then
    Smapp_obs.Metrics.observe m_horizon (float_of_int (ns - Time.to_ns t.clock))

let take_seq t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

(* Fire-and-forget scheduling: one pooled event record, the rank as
   plain ints, no closure and no timer handle. Consumes the same seq
   stream as [set], so switching a call site between the two never
   reorders dispatch. *)
let schedule_ranked t when_ ~r1 ~r2 ~r3 f =
  if Time.(when_ < t.clock) then schedule_past t when_;
  let ns = Time.to_ns when_ in
  let ev = Arena.take t.ev_pool in
  ev.ev_time <- ns;
  ev.ev_r1 <- r1;
  ev.ev_r2 <- r2;
  ev.ev_r3 <- r3;
  ev.ev_seq <- take_seq t;
  ev.ev_fn <- f;
  push t ev;
  observe_horizon t ns
[@@smapp.hot]

let schedule t when_ f = schedule_ranked t when_ ~r1:0 ~r2:0 ~r3:0 f [@@smapp.hot]

let timer t f = { t_engine = t; t_ev = new_event ~pooled:false f }
let set_callback tm f = tm.t_ev.ev_fn <- f

let timer_active tm = tm.t_ev.ev_pos >= 0

(* Each [set] takes the seq a fresh event would take, so the timer
   dispatches exactly as a cancel plus a new [at] would; a queued timer
   is re-keyed in its slot. *)
let set tm when_ =
  let t = tm.t_engine in
  if Time.(when_ < t.clock) then schedule_past t when_;
  let ns = Time.to_ns when_ in
  let ev = tm.t_ev in
  ev.ev_time <- ns;
  ev.ev_seq <- take_seq t;
  if ev.ev_pos >= 0 then fix t ev ev.ev_pos else push t ev;
  observe_horizon t ns
[@@smapp.hot]

let cancel tm =
  let ev = tm.t_ev in
  if ev.ev_pos >= 0 then remove tm.t_engine ev else ev.ev_pos <- idle

let at t when_ f =
  let tm = timer t f in
  set tm when_;
  tm

let after t d f =
  let d = Time.span_max d Time.span_zero in
  at t (Time.add t.clock d) f

(* The handle re-arms itself after each tick, unless [f] cancelled it. *)
let every t ?start period f =
  if Time.span_to_ns period <= 0 then invalid_arg "Engine.every: period must be positive";
  let tm = timer t nop in
  set_callback tm (fun () ->
      match f () with
      | `Continue when tm.t_ev.ev_pos <> idle -> set tm (Time.add t.clock period)
      | `Continue | `Stop -> ());
  let start = Option.value start ~default:period in
  set tm (Time.add t.clock (Time.span_max start Time.span_zero));
  tm

(* --- the loop ---------------------------------------------------------------- *)

(* Under a chooser, take the whole tie group at the head instant out of
   the heap in key order, so index 0 is the head FIFO would take. A group
   of two or more runs the event at the index [choose] gives; the rest go
   back under their own keys. Events the callbacks schedule back at the
   same instant join the next group, so the picks reach every
   interleaving of the tie: the schedules {!Smapp_check.Explore} walks. *)
let take_chosen t choose =
  let time = t.heap.(0).ev_time in
  let group = ref [] in
  while t.size > 0 && t.heap.(0).ev_time = time do
    let ev = t.heap.(0) in
    remove t ev;
    group := ev :: !group
  done;
  match List.rev !group with
  | [ ev ] -> ev
  | group ->
      let i = choose (List.length group) in
      List.iteri (fun j ev -> if j <> i then push t ev) group;
      List.nth group i

(* Dispatch in key order until the queue is empty or its head is past
   [limit] ns; [true] when stopped by the limit. *)
let dispatch t limit =
  Smapp_obs.Trace.set_clock t.clock_fn;
  let continue = ref true and past = ref false in
  while !continue do
    if t.size = 0 then continue := false
    else
      let head = t.heap.(0) in
      if head.ev_time > limit then begin
        past := true;
        continue := false
      end
      else begin
        (* under a chooser the taken event may differ from the head, but
           shares its timestamp *)
        let ev =
          match t.choose with
          | None ->
              remove t head;
              head
          | Some choose -> take_chosen t choose
        in
        let f = ev.ev_fn in
        t.clock <- Time.of_ns ev.ev_time;
        (* recycle before dispatch: the callback's own scheduling may
           reuse the record, which is fine — every field is read here *)
        if ev.ev_pooled then begin
          ev.ev_fn <- nop;
          Arena.put t.ev_pool ev
        end
        else ev.ev_pos <- fired;
        t.last_dispatch <- t.clock;
        t.executed <- t.executed + 1;
        if Atomic.get Smapp_obs.Scope.enabled then begin
          Smapp_obs.Metrics.incr m_dispatched;
          Smapp_obs.Metrics.set m_queue_depth (float_of_int t.size);
          Smapp_obs.Prof.dispatch_begin ();
          f ();
          Smapp_obs.Prof.dispatch_end ()
        end
        else f ()
      end
  done;
  !past
[@@smapp.hot]

let run_until t limit =
  if dispatch t (Time.to_ns limit) || Time.(t.clock < limit) then t.clock <- limit

let run t = ignore (dispatch t max_int)

let events_executed t = t.executed
