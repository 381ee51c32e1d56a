(* Tests for the discrete-event engine, time, Otable and RNG. *)

open Smapp_sim

let checki = Alcotest.check Alcotest.int
let checkb = Alcotest.check Alcotest.bool

(* --- Time -------------------------------------------------------------------- *)

let test_time_units () =
  checki "ms" 5_000_000 (Time.span_to_ns (Time.span_ms 5));
  checki "us" 5_000 (Time.span_to_ns (Time.span_us 5));
  checki "s" 5_000_000_000 (Time.span_to_ns (Time.span_s 5));
  checki "of_float" 1_500_000_000 (Time.span_to_ns (Time.span_of_float_s 1.5))

let test_time_arith () =
  let t = Time.add Time.zero (Time.span_ms 100) in
  checki "add" 100_000_000 (Time.to_ns t);
  checki "diff" 100_000_000 (Time.span_to_ns (Time.diff t Time.zero));
  checkb "compare" true Time.(t > Time.zero)

(* --- Rng --------------------------------------------------------------------- *)

let test_rng_deterministic () =
  let a = Rng.of_int 1234 and b = Rng.of_int 1234 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let parent = Rng.of_int 99 in
  let child = Rng.split parent in
  let c1 = Rng.int64 child and p1 = Rng.int64 parent in
  checkb "differ" true (not (Int64.equal c1 p1))

let test_rng_bounds () =
  let rng = Rng.of_int 5 in
  for _ = 1 to 1000 do
    let x = Rng.int rng 17 in
    checkb "in bounds" true (x >= 0 && x < 17)
  done

let test_rng_bernoulli_rate () =
  let rng = Rng.of_int 6 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  checkb "about 30%" true (rate > 0.29 && rate < 0.31)

let test_rng_float_range () =
  let rng = Rng.of_int 7 in
  for _ = 1 to 1000 do
    let x = Rng.float rng 2.5 in
    checkb "in range" true (x >= 0.0 && x < 2.5)
  done

(* --- Engine ------------------------------------------------------------------ *)

let test_engine_ordering () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.after e (Time.span_ms 30) (note "c"));
  ignore (Engine.after e (Time.span_ms 10) (note "a"));
  ignore (Engine.after e (Time.span_ms 20) (note "b"));
  Engine.run e;
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] (List.rev !log)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  let note tag () = log := tag :: !log in
  ignore (Engine.after e (Time.span_ms 10) (note "first"));
  ignore (Engine.after e (Time.span_ms 10) (note "second"));
  Engine.run e;
  Alcotest.(check (list string)) "fifo ties" [ "first"; "second" ] (List.rev !log)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let timer = Engine.after e (Time.span_ms 10) (fun () -> fired := true) in
  Alcotest.(check bool) "active" true (Engine.timer_active timer);
  Engine.cancel timer;
  Alcotest.(check bool) "inactive" false (Engine.timer_active timer);
  Engine.run e;
  Alcotest.(check bool) "never fired" false !fired

let test_engine_until () =
  let e = Engine.create () in
  let count = ref 0 in
  ignore (Engine.after e (Time.span_ms 10) (fun () -> incr count));
  ignore (Engine.after e (Time.span_ms 50) (fun () -> incr count));
  Engine.run_until e (Time.add Time.zero (Time.span_ms 20));
  checki "only first fired" 1 !count;
  checki "clock at limit" 20_000_000 (Time.to_ns (Engine.now e));
  Engine.run e;
  checki "rest fired on resume" 2 !count

let test_engine_every () =
  let e = Engine.create () in
  let count = ref 0 in
  let _timer =
    Engine.every e (Time.span_ms 10) (fun () ->
        incr count;
        if !count >= 5 then `Stop else `Continue)
  in
  Engine.run e;
  checki "five ticks" 5 !count;
  checki "stopped at 50ms" 50_000_000 (Time.to_ns (Engine.now e))

let test_engine_every_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = Engine.every e (Time.span_ms 10) (fun () -> incr count; `Continue) in
  ignore
    (Engine.after e (Time.span_ms 35) (fun () -> Engine.cancel timer));
  Engine.run e;
  checki "three ticks then cancelled" 3 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let log = ref [] in
  ignore
    (Engine.after e (Time.span_ms 10) (fun () ->
         log := "outer" :: !log;
         ignore (Engine.after e (Time.span_ms 5) (fun () -> log := "inner" :: !log))));
  Engine.run e;
  Alcotest.(check (list string)) "nested" [ "outer"; "inner" ] (List.rev !log);
  checki "clock" 15_000_000 (Time.to_ns (Engine.now e))

(* --- Otable ------------------------------------------------------------------- *)

let otable_find t k = match Otable.find t k with v -> Some v | exception Not_found -> None

let test_otable_basics () =
  let t = Otable.create () in
  checkb "empty" true (Otable.is_empty t);
  Otable.add t 1 "a";
  Otable.add t 2 "b";
  Otable.add t 3 "c";
  checki "length" 3 (Otable.length t);
  checkb "mem" true (Otable.mem t 2);
  Alcotest.(check (option string)) "find" (Some "b") (otable_find t 2);
  Alcotest.(check (option string)) "find absent" None (otable_find t 9);
  Otable.remove t 2;
  checkb "removed" false (Otable.mem t 2);
  checki "length after remove" 2 (Otable.length t);
  Otable.remove t 2 (* absent: no-op *)

let test_otable_insertion_order () =
  let t = Otable.create () in
  List.iter (fun k -> Otable.add t k (string_of_int k)) [ 5; 1; 4; 2 ];
  Alcotest.(check (list int)) "keys oldest first" [ 5; 1; 4; 2 ] (Otable.keys t);
  Alcotest.(check (list string)) "values oldest first" [ "5"; "1"; "4"; "2" ]
    (Otable.to_list t);
  Otable.remove t 4;
  Alcotest.(check (list int)) "order survives removal" [ 5; 1; 2 ] (Otable.keys t)

let test_otable_replace_moves_to_end () =
  let t = Otable.create () in
  Otable.add t 1 "a";
  Otable.add t 2 "b";
  Otable.add t 1 "A";
  checki "still two bindings" 2 (Otable.length t);
  Alcotest.(check (option string)) "new value" (Some "A") (otable_find t 1);
  Alcotest.(check (list int)) "replaced key moved to end" [ 2; 1 ] (Otable.keys t)

let test_otable_iter_self_removal () =
  let t = Otable.create () in
  List.iter (fun k -> Otable.add t k k) [ 1; 2; 3; 4; 5 ];
  Otable.iter (fun k _ -> if k mod 2 = 0 then Otable.remove t k) t;
  Alcotest.(check (list int)) "odd keys remain" [ 1; 3; 5 ] (Otable.keys t)

(* Otable against an association list held oldest first, over random adds
   (a re-add moves the key to the end), removes of present and absent keys,
   clears and iterations that remove the binding under iteration. *)
type otable_op = O_add of int * int | O_remove of int | O_clear | O_iter_remove of int

let print_otable_op = function
  | O_add (k, v) -> Printf.sprintf "add %d %d" k v
  | O_remove k -> Printf.sprintf "remove %d" k
  | O_clear -> "clear"
  | O_iter_remove k -> Printf.sprintf "iter removing %d" k

let otable_keys = List.init 8 Fun.id

let prop_otable_model =
  let op =
    QCheck.Gen.(
      let key = int_bound 7 in
      frequency
        [
          (5, map2 (fun k v -> O_add (k, v)) key (int_bound 99));
          (3, map (fun k -> O_remove k) key);
          (1, return O_clear);
          (2, map (fun k -> O_iter_remove k) key);
        ])
  in
  QCheck.Test.make ~count:500 ~name:"otable agrees with an insertion-ordered association list"
    (QCheck.make
       ~print:QCheck.Print.(list print_otable_op)
       QCheck.Gen.(list_size (int_bound 60) op))
    (fun ops ->
      let t = Otable.create ~size:2 () in
      let model = ref [] in
      let iterated () =
        let seen = ref [] in
        Otable.iter (fun k v -> seen := (k, v) :: !seen) t;
        List.rev !seen
      in
      let step op =
        let ok =
          match op with
          | O_add (k, v) ->
              Otable.add t k v;
              model := List.remove_assoc k !model @ [ (k, v) ];
              true
          | O_remove k ->
              Otable.remove t k;
              model := List.remove_assoc k !model;
              true
          | O_clear ->
              Otable.clear t;
              model := [];
              true
          | O_iter_remove k ->
              (* every binding is visited once, in order, the removed one too *)
              let seen = ref [] in
              Otable.iter
                (fun k' v ->
                  seen := (k', v) :: !seen;
                  if k' = k then Otable.remove t k)
                t;
              let visited = List.rev !seen = !model in
              model := List.remove_assoc k !model;
              visited
        in
        ok
        && iterated () = !model
        && Otable.to_list t = List.map snd !model
        && Otable.keys t = List.map fst !model
        && Otable.length t = List.length !model
        && Otable.is_empty t = (!model = [])
        && List.for_all
             (fun k ->
               otable_find t k = List.assoc_opt k !model
               && Otable.mem t k = List.mem_assoc k !model)
             otable_keys
      in
      List.for_all step ops)

let engine_props =
  (* Random delays, a random subset cancelled while armed: the survivors
     must fire in time order with FIFO ties (= stable sort by delay). *)
  let specs = QCheck.(list (pair (int_bound 50) bool)) in
  [
    QCheck.Test.make ~name:"engine fires survivors in stable time order" ~count:200 specs
      (fun specs ->
        let e = Engine.create () in
        let log = ref [] in
        let timers =
          List.mapi
            (fun i (d, _) -> Engine.after e (Time.span_ms d) (fun () -> log := i :: !log))
            specs
        in
        List.iteri (fun i (_, cancel) -> if cancel then Engine.cancel (List.nth timers i)) specs;
        Engine.run e;
        let expect =
          List.mapi (fun i (d, c) -> (d, i, c)) specs
          |> List.filter (fun (_, _, c) -> not c)
          |> List.stable_sort (fun (a, _, _) (b, _, _) -> Int.compare a b)
          |> List.map (fun (_, i, _) -> i)
        in
        List.rev !log = expect);
  ]

let test_engine_every_rearm_exact () =
  let e = Engine.create () in
  let ticks = ref [] in
  let _timer =
    Engine.every e (Time.span_ms 10) (fun () ->
        ticks := Time.to_ns (Engine.now e) :: !ticks;
        if List.length !ticks >= 4 then `Stop else `Continue)
  in
  Engine.run e;
  Alcotest.(check (list int)) "re-arms drift-free"
    [ 10_000_000; 20_000_000; 30_000_000; 40_000_000 ]
    (List.rev !ticks)

let test_engine_cancel_while_armed () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer =
    Engine.every e (Time.span_ms 10)
      (fun () ->
        incr count;
        `Continue)
  in
  ignore
    (Engine.after e (Time.span_ms 25) (fun () ->
         checkb "armed between ticks" true (Engine.timer_active timer);
         Engine.cancel timer;
         Engine.cancel timer;
         (* double cancel is a no-op *)
         checkb "disarmed" false (Engine.timer_active timer)));
  Engine.run e;
  checki "two ticks then cancelled" 2 !count;
  checki "clock stops at cancel point" 25_000_000 (Time.to_ns (Engine.now e))

let test_engine_every_self_cancel () =
  let e = Engine.create () in
  let count = ref 0 in
  let timer = ref None in
  timer :=
    Some
      (Engine.every e (Time.span_ms 10) (fun () ->
           incr count;
           if !count = 2 then Engine.cancel (Option.get !timer);
           if !count >= 11 then `Stop else `Continue));
  Engine.run e;
  checki "stopped by its own cancel" 2 !count;
  checkb "disarmed" false (Engine.timer_active (Option.get !timer))

(* A period of zero or less would re-arm at one instant forever. *)
let test_engine_every_nonpositive_period () =
  let e = Engine.create () in
  let ticks = ref 0 in
  List.iter
    (fun ns ->
      Alcotest.check_raises
        (Printf.sprintf "period %d ns rejected" ns)
        (Invalid_argument "Engine.every: period must be positive")
        (fun () ->
          ignore
            (Engine.every e (Time.span_ns ns) (fun () ->
                 incr ticks;
                 `Continue));
          Engine.run_until e (Time.of_ns 1_000_000)))
    [ 0; -1 ];
  checki "never ticked" 0 !ticks

(* Random timer programs against a model written here: every [set] is a
   cancel plus a fresh insert keyed by (deadline, call order), and one
   counter numbers sets, [at]s and [schedule]s alike. The model orders
   by (deadline, rank, call order); timers, [at] and [schedule] take the
   rank (0, 0, 0). Timers 0-3 are built once with [Engine.timer]; every
   dispatch runs the next two operations of the program's stream, so
   callbacks re-set their own timer or another one, cancel, and add
   one-shots at instants that collide, ranked and unranked alike. Some
   deadlines lie 2^40 ns (~18 simulated minutes) or more ahead. *)
type timer_op =
  | Set of int * int  (** timer, ns from now *)
  | Cancel of int
  | Same of int  (** timer, to the deadline of its last set, if not past *)
  | At of int
  | Schedule of int
  | Ranked of int * (int * int * int)  (** ns from now, rank *)

let n_timers = 4

let print_timer_op = function
  | Set (i, d) -> Printf.sprintf "set %d +%d" i d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Same i -> Printf.sprintf "same %d" i
  | At d -> Printf.sprintf "at +%d" d
  | Schedule d -> Printf.sprintf "schedule +%d" d
  | Ranked (d, (r1, r2, r3)) -> Printf.sprintf "ranked +%d (%d, %d, %d)" d r1 r2 r3

let ms d = d * 1_000_000

(* A few whole milliseconds, so that deadlines collide; one in five is
   2^40 ns further. *)
let gen_delay =
  QCheck.Gen.(
    frequency
      [ (4, map ms (int_bound 4)); (1, map (fun d -> (1 lsl 40) + ms d) (int_bound 4)) ])

let gen_rank =
  QCheck.Gen.(
    frequency [ (1, pure (0, 0, 0)); (3, triple (int_bound 2) (int_bound 2) (int_bound 2)) ])

let gen_timer_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun i d -> Set (i, d)) (int_bound (n_timers - 1)) gen_delay);
        (2, map (fun i -> Cancel i) (int_bound (n_timers - 1)));
        (2, map (fun i -> Same i) (int_bound (n_timers - 1)));
        (1, map (fun d -> At d) gen_delay);
        (1, map (fun d -> Schedule d) gen_delay);
        (2, map2 (fun d r -> Ranked (d, r)) gen_delay gen_rank);
      ])

let arb_timer_program =
  QCheck.make
    ~print:QCheck.Print.(pair (list print_timer_op) (list print_timer_op))
    QCheck.Gen.(
      pair (list_size (int_range 1 8) gen_timer_op) (list_size (int_range 0 80) gen_timer_op))

(* Pops two operations off [stream] per dispatch. *)
let next_ops stream =
  match !stream with
  | a :: b :: rest ->
      stream := rest;
      [ a; b ]
  | rest ->
      stream := [];
      rest

(* The engine's dispatch log of (ns, id): timers are ids 0-3, one-shots
   [n_timers + k] for the k-th added; and the events it counted. *)
let engine_log (init, stream) =
  let e = Engine.create () in
  let stream = ref stream and log = ref [] and shots = ref 0 in
  let last = Array.make n_timers (-1) and timers = ref [||] in
  let rec fire id () =
    log := (Time.to_ns (Engine.now e), id) :: !log;
    List.iter exec (next_ops stream)
  and exec op =
    let now = Time.to_ns (Engine.now e) in
    let shot () =
      incr shots;
      fire (n_timers + !shots - 1)
    in
    match op with
    | Set (i, d) ->
        last.(i) <- now + d;
        Engine.set !timers.(i) (Time.of_ns last.(i))
    | Cancel i -> Engine.cancel !timers.(i)
    | Same i -> if last.(i) >= now then Engine.set !timers.(i) (Time.of_ns last.(i))
    | At d -> ignore (Engine.at e (Time.of_ns (now + d)) (shot ()) : Engine.timer)
    | Schedule d -> Engine.schedule e (Time.of_ns (now + d)) (shot ())
    | Ranked (d, (r1, r2, r3)) ->
        Engine.schedule_ranked e (Time.of_ns (now + d)) ~r1 ~r2 ~r3 (shot ())
  in
  timers := Array.init n_timers (fun i -> Engine.timer e (fire i));
  List.iter exec init;
  Engine.run e;
  (List.rev !log, Engine.events_executed e)

let model_log (init, stream) =
  let stream = ref stream and log = ref [] and shots = ref 0 and seq = ref 0 in
  let now = ref 0 in
  let last = Array.make n_timers (-1) in
  (* each timer's armed (deadline, seq), and the pending one-shots'
     (deadline, rank, seq, id) *)
  let armed = Array.make n_timers None and pending = ref [] in
  let next_seq () =
    incr seq;
    !seq
  in
  let shot d rank =
    incr shots;
    pending := (!now + d, rank, next_seq (), n_timers + !shots - 1) :: !pending
  in
  let exec = function
    | Set (i, d) ->
        last.(i) <- !now + d;
        armed.(i) <- Some (last.(i), next_seq ())
    | Cancel i -> armed.(i) <- None
    | Same i -> if last.(i) >= !now then armed.(i) <- Some (last.(i), next_seq ())
    | At d | Schedule d -> shot d (0, 0, 0)
    | Ranked (d, rank) -> shot d rank
  in
  List.iter exec init;
  let rec loop () =
    let keys =
      !pending
      @ List.filter_map Fun.id
          (List.init n_timers (fun i ->
               Option.map (fun (t, s) -> (t, (0, 0, 0), s, i)) armed.(i)))
    in
    match List.sort compare keys with
    | [] -> ()
    | ((t, _, _, id) as first) :: _ ->
        if id < n_timers then armed.(id) <- None
        else pending := List.filter (( <> ) first) !pending;
        now := t;
        log := (t, id) :: !log;
        List.iter exec (next_ops stream);
        loop ()
  in
  loop ();
  (List.rev !log, List.length !log)

let prop_timer_model =
  QCheck.Test.make ~count:500 ~name:"timers dispatch as cancel plus fresh insert"
    arb_timer_program (fun program -> engine_log program = model_log program)

let test_engine_past_raises () =
  let e = Engine.create () in
  ignore
    (Engine.after e (Time.span_ms 10) (fun () ->
         Alcotest.check_raises "past scheduling rejected"
           (Invalid_argument "Engine.at: 0.000000s is before now (0.010000s)") (fun () ->
             ignore (Engine.at e Time.zero (fun () -> ())))));
  Engine.run e

(* --- Engine heap past its first slots ------------------------------------------ *)

(* The queue starts with 1,024 slots and doubles; these tests queue
   several thousand events, so it regrows and every cancel or re-key
   works deep inside the heap. *)

(* Cancelling the earliest timer must hand the head to the next live
   deadline at once, however far down it sits. *)
let test_heap_cancelled_head () =
  let e = Engine.create () in
  let n = 2_500 in
  (* distinct deadlines, queued out of order *)
  let deadline i = ((i * 7919) mod n) + 1 in
  let timers = Array.init n (fun i -> Engine.at e (Time.of_ns (deadline i)) ignore) in
  let by_deadline = Array.make (n + 1) (-1) in
  Array.iteri (fun i _ -> by_deadline.(deadline i) <- i) timers;
  for d = 1 to n - 1 do
    Engine.cancel timers.(by_deadline.(d));
    checki
      (Printf.sprintf "head after cancelling %d ns" d)
      (d + 1) (Engine.next_event_ns e)
  done;
  Engine.run e;
  checki "only the last ran" 1 (Engine.events_executed e);
  checki "queue empty" max_int (Engine.next_event_ns e)

type big_op =
  | Shot of int  (** [schedule] at ns *)
  | Arm of int  (** [at] at ns: a new handle *)
  | Drop of int  (** cancel handle k mod the handles so far *)
  | Reset of int * int  (** set handle k mod the handles so far to ns *)

let print_big_op = function
  | Shot d -> Printf.sprintf "shot %d" d
  | Arm d -> Printf.sprintf "arm %d" d
  | Drop k -> Printf.sprintf "drop %d" k
  | Reset (k, d) -> Printf.sprintf "reset %d %d" k d

(* Up to 3,000 operations on deadlines drawn from 2,000 ns, so ties are
   common and the heap holds well over 1,024 events. *)
let arb_big_program =
  let d = QCheck.Gen.int_bound 1_999 and k = QCheck.Gen.int_bound 100_000 in
  QCheck.make
    ~print:(fun ops -> Printf.sprintf "%d ops: %s" (List.length ops)
                         (String.concat "; " (List.map print_big_op ops)))
    QCheck.Gen.(
      list_size (int_range 1_100 3_000)
        (frequency
           [
             (3, map (fun d -> Shot d) d);
             (3, map (fun d -> Arm d) d);
             (2, map (fun k -> Drop k) k);
             (2, map2 (fun k d -> Reset (k, d)) k d);
           ]))

(* All operations run before the first dispatch; the model keeps each
   pending id's (deadline, call order) and sorts. Ids are positions in
   the program: a handle keeps the id of the [Arm] that built it. *)
let prop_heap_model =
  QCheck.Test.make ~count:100 ~name:"large queues match a sorted model" arb_big_program
    (fun ops ->
      let e = Engine.create () in
      let log = ref [] in
      let handles = ref [||] and n_handles = ref 0 in
      let pending = Hashtbl.create 4096 and seq = ref 0 in
      let file id d =
        incr seq;
        Hashtbl.replace pending id (d, !seq)
      in
      let nth k f =
        if !n_handles > 0 then
          let id, tm = !handles.(k mod !n_handles) in
          f id tm
      in
      List.iteri
        (fun id op ->
          let fire () = log := id :: !log in
          match op with
          | Shot d ->
              Engine.schedule e (Time.of_ns d) fire;
              file id d
          | Arm d ->
              let tm = Engine.at e (Time.of_ns d) fire in
              if !n_handles = Array.length !handles then
                handles := Array.append !handles (Array.make (max 16 !n_handles) (id, tm));
              !handles.(!n_handles) <- (id, tm);
              incr n_handles;
              file id d
          | Drop k ->
              nth k (fun id tm ->
                  Engine.cancel tm;
                  Hashtbl.remove pending id)
          | Reset (k, d) ->
              nth k (fun id tm ->
                  Engine.set tm (Time.of_ns d);
                  file id d))
        ops;
      Engine.run e;
      let expect =
        Hashtbl.fold (fun id (d, s) acc -> (d, s, id) :: acc) pending []
        |> List.sort compare
        |> List.map (fun (_, _, id) -> id)
      in
      List.rev !log = expect)

(* Ring against a list: random pushes (growing when full), pops, front
   overwrites and reads, wrapping the ring's head many times. *)
let prop_ring_model =
  QCheck.Test.make ~count:300 ~name:"ring matches a list FIFO"
    QCheck.(list_of_size Gen.(int_range 0 300) (int_range 0 9))
    (fun ops ->
      let r = ref (Ring.empty ()) and model = ref [] and ok = ref true in
      let check () =
        if Ring.length !r <> List.length !model then ok := false;
        List.iteri (fun i x -> if Ring.get !r i <> x then ok := false) !model
      in
      List.iteri
        (fun k op ->
          (match (op, !model) with
          | (0 | 1 | 2 | 3 | 4), _ ->
              r := Ring.push !r k;
              model := !model @ [ k ]
          | (5 | 6 | 7), _ :: rest ->
              Ring.pop !r;
              model := rest
          | 8, _ :: rest ->
              Ring.set !r 0 (-k);
              model := -k :: rest
          | _ -> ());
          check ())
        ops;
      !ok)

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
        ] );
      ( "otable",
        [
          Alcotest.test_case "basics" `Quick test_otable_basics;
          Alcotest.test_case "insertion order" `Quick test_otable_insertion_order;
          Alcotest.test_case "replace moves to end" `Quick test_otable_replace_moves_to_end;
          Alcotest.test_case "iter self removal" `Quick test_otable_iter_self_removal;
          QCheck_alcotest.to_alcotest prop_otable_model;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "int bounds" `Quick test_rng_bounds;
          Alcotest.test_case "bernoulli rate" `Quick test_rng_bernoulli_rate;
          Alcotest.test_case "float range" `Quick test_rng_float_range;
        ] );
      ( "engine",
        [
          Alcotest.test_case "ordering" `Quick test_engine_ordering;
          Alcotest.test_case "fifo ties" `Quick test_engine_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_engine_cancel;
          Alcotest.test_case "run until" `Quick test_engine_until;
          Alcotest.test_case "every" `Quick test_engine_every;
          Alcotest.test_case "every cancel" `Quick test_engine_every_cancel;
          Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
          Alcotest.test_case "past raises" `Quick test_engine_past_raises;
          Alcotest.test_case "every re-arms exactly" `Quick test_engine_every_rearm_exact;
          Alcotest.test_case "cancel while armed" `Quick test_engine_cancel_while_armed;
          Alcotest.test_case "every cancelled from its own callback" `Quick
            test_engine_every_self_cancel;
          Alcotest.test_case "every rejects a period <= 0" `Quick
            test_engine_every_nonpositive_period;
        ]
        @ List.map QCheck_alcotest.to_alcotest (engine_props @ [ prop_timer_model ]) );
      ( "engine heap",
        [ Alcotest.test_case "cancelled head leaves the queue" `Quick test_heap_cancelled_head ]
        @ [ QCheck_alcotest.to_alcotest prop_heap_model ] );
      ("ring", [ QCheck_alcotest.to_alcotest prop_ring_model ]);
    ]
