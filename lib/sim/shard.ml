module Metrics = Smapp_obs.Metrics
module Trace = Smapp_obs.Trace

type shard = {
  sh_engine : Engine.t;
  sh_metrics : Metrics.Scope.t;
  sh_trace : Trace.Scope.t;
}

(* One cross-shard event: drained at the barrier in (time, rank, src,
   seq) order — a total order (seq is unique per (src, dst) pair) — so
   the merge cannot depend on which lane posted first in wall-clock
   time. The rank is the sender's canonical tie key (see
   [Engine.schedule_ranked]); it carries through injection so an injected event
   sorts against the destination's local same-instant events exactly as
   it would have, had it been scheduled locally. *)
type mail = {
  m_time : int;
  m_r1 : int; (* the rank triple, flattened: no tuple kept per mail *)
  m_r2 : int;
  m_r3 : int;
  m_src : int;
  m_seq : int;
  m_thunk : unit -> unit;
}

type cross = { x_src : int; x_dst : int; x_latency : unit -> Time.span }

type group = {
  g_shards : shard array;
  g_single : bool; (* [single]: plain engine semantics, no windows *)
  g_mail : mail list ref array array; (* [src].(dst), newest first *)
  g_mail_seq : int array array;
  mutable g_cross : cross list;
  mutable g_sealed : bool;
  (* Highest timestamp any shard may execute in the current window; posts
     must land strictly past it or the lookahead argument is broken. *)
  mutable g_horizon : int;
}

let make_group ~single shards =
  let n = Array.length shards in
  {
    g_shards = shards;
    g_single = single;
    g_mail = Array.init n (fun _ -> Array.init n (fun _ -> ref []));
    g_mail_seq = Array.make_matrix n n 0;
    g_cross = [];
    g_sealed = single;
    g_horizon = min_int;
  }

let single engine =
  make_group ~single:true
    [|
      {
        sh_engine = engine;
        sh_metrics = Metrics.Scope.current ();
        sh_trace = Trace.Scope.current ();
      };
    |]

let create ?(seed = 42) ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if shards = 1 then single (Engine.create ~seed ())
  else begin
    (* Each engine is created inside its own scopes so its trace clock
       binds there — several live engines, no clobbered global clock. *)
    let mk _ =
      let sh_metrics = Metrics.Scope.create () in
      let sh_trace = Trace.Scope.create () in
      let sh_engine =
        Metrics.Scope.with_scope sh_metrics (fun () ->
            Trace.Scope.with_scope sh_trace (fun () -> Engine.create ~seed ()))
      in
      { sh_engine; sh_metrics; sh_trace }
    in
    let shards = Array.init shards mk in
    (* One shared construction root: component streams split in program
       order, identical for every shard count. *)
    let shared = Engine.rng shards.(0).sh_engine in
    Array.iteri
      (fun i sh ->
        if i > 0 then begin
          Engine.adopt_rng sh.sh_engine shared;
          Engine.adopt_uids sh.sh_engine ~from:shards.(0).sh_engine
        end)
      shards;
    make_group ~single:false shards
  end

let shards g = Array.length g.g_shards
let engine g i = g.g_shards.(i).sh_engine

let seal g =
  if not g.g_sealed then begin
    g.g_sealed <- true;
    let shared = Engine.rng g.g_shards.(0).sh_engine in
    Array.iter
      (fun sh -> Engine.adopt_rng sh.sh_engine (Rng.split shared))
      g.g_shards
  end

let check_index g name i =
  if i < 0 || i >= Array.length g.g_shards then
    invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" name i)

let register_cross g ~src ~dst x_latency =
  check_index g "register_cross" src;
  check_index g "register_cross" dst;
  if src = dst then invalid_arg "Shard.register_cross: src = dst";
  g.g_cross <- { x_src = src; x_dst = dst; x_latency } :: g.g_cross

let post g ~src ~dst ~time ~rank thunk =
  let ns = Time.to_ns time in
  if g.g_horizon = min_int then
    Bug.fail
      "Shard.post: no window is executing — cross-shard deliveries may \
       only be committed from inside a window lane";
  if ns <= g.g_horizon then
    Bug.fail
      "Shard.post: delivery at %d ns from shard %d to %d is within the \
       window horizon %d ns — a cross-shard edge undercut the lookahead"
      ns src dst g.g_horizon;
  let seq = g.g_mail_seq.(src).(dst) in
  g.g_mail_seq.(src).(dst) <- seq + 1;
  let box = g.g_mail.(src).(dst) in
  let r1, r2, r3 = rank in
  box :=
    { m_time = ns; m_r1 = r1; m_r2 = r2; m_r3 = r3; m_src = src; m_seq = seq;
      m_thunk = thunk }
    :: !box

let compare_mail a b =
  let c = Int.compare a.m_time b.m_time in
  if c <> 0 then c
  else
    let c = Int.compare a.m_r1 b.m_r1 in
    if c <> 0 then c
    else
      let c = Int.compare a.m_r2 b.m_r2 in
      if c <> 0 then c
      else
        let c = Int.compare a.m_r3 b.m_r3 in
        if c <> 0 then c
        else
          let c = Int.compare a.m_src b.m_src in
          if c <> 0 then c else Int.compare a.m_seq b.m_seq

(* Inject the mailboxed events into their destination engines. Sorting by
   (time, rank, src, seq) — a total order over the drained set — makes
   the injected engine-sequence numbers, and therefore all downstream tie
   decisions, a pure function of what was posted; the rank also carries
   into [Engine.at], where it slots each event among the destination's
   local same-instant events exactly as local scheduling would have. *)
let drain g =
  let n = Array.length g.g_shards in
  for dst = 0 to n - 1 do
    let entries = ref [] in
    for src = 0 to n - 1 do
      let box = g.g_mail.(src).(dst) in
      entries := List.rev_append !box !entries;
      box := []
    done;
    match !entries with
    | [] -> ()
    | unordered ->
        let e = g.g_shards.(dst).sh_engine in
        List.iter
          (fun m ->
            Engine.schedule_ranked e (Time.of_ns m.m_time) ~r1:m.m_r1 ~r2:m.m_r2
              ~r3:m.m_r3 m.m_thunk)
          (List.sort compare_mail unordered)
  done

let next_time g =
  Array.fold_left
    (fun acc sh ->
      match (Engine.next_event_time sh.sh_engine, acc) with
      | None, acc -> acc
      | Some t, None -> Some t
      | Some t, Some u -> if Time.(t < u) then Some t else acc)
    None g.g_shards

(* Lookahead in ns: the minimum current latency over cross edges, [None]
   when the shards are causally decoupled (no edges). *)
let lookahead g =
  List.fold_left
    (fun acc x ->
      let d = Time.span_to_ns (x.x_latency ()) in
      match acc with None -> Some d | Some a -> Some (min a d))
    None g.g_cross

let run_window g s limit =
  let sh = g.g_shards.(s) in
  Metrics.Scope.with_scope sh.sh_metrics (fun () ->
      Trace.Scope.with_scope sh.sh_trace (fun () ->
          match limit with
          | None -> Engine.run sh.sh_engine
          | Some l -> Engine.run ~until:l sh.sh_engine))

let run ?lanes g =
  if g.g_single then Engine.run g.g_shards.(0).sh_engine
  else begin
    seal g;
    let n = Array.length g.g_shards in
    let lanes =
      match lanes with
      | Some f -> f
      | None -> fun f -> for s = 0 to n - 1 do f s done
    in
    let stop = ref false in
    while not !stop do
      match next_time g with
      | None -> stop := true
      | Some t ->
          let limit =
            match lookahead g with
            | None -> None (* decoupled: free-run, no barrier needed *)
            | Some la ->
                if la <= 0 then
                  Bug.fail
                    "Shard.run: cross-shard lookahead is %d ns; positive \
                     latency on every cross edge is required for progress"
                    la;
                Some (Time.of_ns (Time.to_ns t + la - 1))
          in
          g.g_horizon <-
            (match limit with None -> max_int | Some l -> Time.to_ns l);
          lanes (fun s -> run_window g s limit);
          drain g
    done
  end

let events_executed g =
  Array.fold_left
    (fun acc sh -> acc + Engine.events_executed sh.sh_engine)
    0 g.g_shards

let last_event_time g =
  Array.fold_left
    (fun acc sh ->
      let t = Engine.last_event_time sh.sh_engine in
      if Time.(t > acc) then t else acc)
    Time.zero g.g_shards
