(* One (src, dst) mailbox: each posted event's key in four ints of
   [b_keys] (time and the sender's canonical tie rank, see
   [Engine.schedule_ranked]) beside its thunk, oldest first. The rank
   carries through injection so an injected event sorts against the
   destination's local same-instant events exactly as it would have, had
   it been scheduled locally. Both arrays double when full and are reused
   after every drain, so a post stores into them and allocates nothing. *)
type box = {
  mutable b_keys : int array;
  mutable b_thunks : (unit -> unit) array;
  mutable b_len : int;
}

type group = {
  g_shards : Engine.t array;
  g_single : bool; (* [single]: plain engine semantics, no windows *)
  g_mail : box array array; (* [src].(dst) *)
  mutable g_cross : (unit -> Time.span) list; (* each cross edge's latency *)
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
    g_mail =
      Array.init n (fun _ ->
          Array.init n (fun _ -> { b_keys = [||]; b_thunks = [||]; b_len = 0 }));
    g_cross = [];
    g_sealed = single;
    g_horizon = min_int;
  }

let single engine = make_group ~single:true [| engine |]

let create ?(seed = 42) ~shards () =
  if shards < 1 then invalid_arg "Shard.create: shards must be >= 1";
  if shards = 1 then single (Engine.create ~seed ())
  else begin
    let engines = Array.init shards (fun _ -> Engine.create ~seed ()) in
    (* One shared construction root: component streams split in program
       order, identical for every shard count. *)
    let shared = Engine.rng engines.(0) in
    Array.iteri
      (fun i e ->
        if i > 0 then begin
          Engine.adopt_rng e shared;
          Engine.adopt_uids e ~from:engines.(0)
        end)
      engines;
    make_group ~single:false engines
  end

let shards g = Array.length g.g_shards
let engine g i = g.g_shards.(i)

let seal g =
  if not g.g_sealed then begin
    g.g_sealed <- true;
    let shared = Engine.rng g.g_shards.(0) in
    Array.iter (fun e -> Engine.adopt_rng e (Rng.split shared)) g.g_shards
  end

let check_index g name i =
  if i < 0 || i >= Array.length g.g_shards then
    invalid_arg (Printf.sprintf "Shard.%s: shard %d out of range" name i)

let register_cross g ~src ~dst latency =
  check_index g "register_cross" src;
  check_index g "register_cross" dst;
  if src = dst then invalid_arg "Shard.register_cross: src = dst";
  g.g_cross <- latency :: g.g_cross

(* Cold: a box grows to the most mail one window carries, then stays. *)
let grow box =
  let cap = max 16 (2 * box.b_len) in
  let keys = Array.make (4 * cap) 0 and thunks = Array.make cap ignore in
  Array.blit box.b_keys 0 keys 0 (4 * box.b_len);
  Array.blit box.b_thunks 0 thunks 0 box.b_len;
  box.b_keys <- keys;
  box.b_thunks <- thunks

let post g ~src ~dst ~time ~r1 ~r2 ~r3 thunk =
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
  let box = g.g_mail.(src).(dst) in
  let i = box.b_len in
  if i = Array.length box.b_thunks then grow box;
  box.b_keys.(4 * i) <- ns;
  box.b_keys.((4 * i) + 1) <- r1;
  box.b_keys.((4 * i) + 2) <- r2;
  box.b_keys.((4 * i) + 3) <- r3;
  box.b_thunks.(i) <- thunk;
  box.b_len <- i + 1
[@@smapp.hot]

(* Inject the mailboxed events into their destination engines: each
   destination's mail by source index, each box oldest-first. The engine
   orders events by (time, rank) and breaks remaining ties by insertion
   order, so the injected events run in (time, rank, source, posting
   order): a pure function of what was posted, whichever lane posted
   first in wall-clock time. *)
let drain g =
  let n = Array.length g.g_shards in
  for dst = 0 to n - 1 do
    let e = g.g_shards.(dst) in
    for src = 0 to n - 1 do
      let box = g.g_mail.(src).(dst) in
      let keys = box.b_keys in
      for i = 0 to box.b_len - 1 do
        let k = 4 * i in
        Engine.schedule_ranked e (Time.of_ns keys.(k)) ~r1:keys.(k + 1) ~r2:keys.(k + 2)
          ~r3:keys.(k + 3) box.b_thunks.(i);
        (* the box outlives the window: drop what the thunk holds *)
        box.b_thunks.(i) <- ignore
      done;
      box.b_len <- 0
    done
  done

(* The earliest next dispatch over the shards in ns, [max_int] when
   every queue is empty. *)
let next_time g =
  let t = ref max_int in
  for s = 0 to Array.length g.g_shards - 1 do
    let n = Engine.next_event_ns g.g_shards.(s) in
    if n < !t then t := n
  done;
  !t

(* Lookahead in ns: the minimum current latency over cross edges. *)
let rec lookahead acc = function
  | [] -> acc
  | latency :: rest ->
      let d = Time.span_to_ns (latency ()) in
      lookahead (if d < acc then d else acc) rest

(* One shard's share of the window that ends at [g_horizon]. The lane
   runs it in the scope it runs in: [Engine.run] installs the shard's
   trace clock there. *)
let run_window g s =
  if g.g_horizon = max_int then Engine.run g.g_shards.(s)
  else Engine.run_until g.g_shards.(s) (Time.of_ns g.g_horizon)

(* Run windows until every queue and mailbox is empty; [each g] runs one
   window's share on every shard. A window allocates nothing: its limit
   is an int, in [g_horizon]. *)
let windows g each =
  let t = ref (next_time g) in
  while !t < max_int do
    g.g_horizon <-
      (match g.g_cross with
      | [] -> max_int (* decoupled: free-run, no barrier needed *)
      | cross ->
          let la = lookahead max_int cross in
          if la <= 0 then
            Bug.fail
              "Shard.run: cross-shard lookahead is %d ns; positive latency on \
               every cross edge is required for progress"
              la;
          !t + la - 1);
    each g;
    drain g;
    t := next_time g
  done

let run ?lanes g =
  if g.g_single then Engine.run g.g_shards.(0)
  else begin
    seal g;
    match lanes with
    | None ->
        windows g (fun g ->
            for s = 0 to Array.length g.g_shards - 1 do
              run_window g s
            done)
    | Some lanes ->
        (* built once per run *)
        let window s = run_window g s in
        windows g (fun _ -> lanes window)
  end

let events_executed g =
  Array.fold_left (fun acc e -> acc + Engine.events_executed e) 0 g.g_shards

let last_event_time g =
  Array.fold_left
    (fun acc e ->
      let t = Engine.last_event_time e in
      if Time.(t > acc) then t else acc)
    Time.zero g.g_shards
