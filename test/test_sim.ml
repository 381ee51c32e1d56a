(* Tests for the discrete-event engine, heap, time and RNG. *)

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

(* --- Heap -------------------------------------------------------------------- *)

let test_heap_ordering () =
  let h = Heap.create ~cmp:Int.compare in
  List.iter (Heap.add h) [ 5; 1; 4; 1; 3; 9; 0 ];
  let out = ref [] in
  let rec drain () =
    match Heap.pop h with
    | Some x ->
        out := x :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "sorted" [ 9; 5; 4; 3; 1; 1; 0 ] !out

let heap_props =
  [
    QCheck.Test.make ~name:"heap pops sorted" ~count:200
      QCheck.(list int)
      (fun xs ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.add h) xs;
        let rec drain acc =
          match Heap.pop h with Some x -> drain (x :: acc) | None -> List.rev acc
        in
        drain [] = List.sort Int.compare xs);
    QCheck.Test.make ~name:"heap length" ~count:200
      QCheck.(list int)
      (fun xs ->
        let h = Heap.create ~cmp:Int.compare in
        List.iter (Heap.add h) xs;
        Heap.length h = List.length xs);
  ]

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
  Engine.run ~until:(Time.add Time.zero (Time.span_ms 20)) e;
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

let test_otable_basics () =
  let t = Otable.create () in
  checkb "empty" true (Otable.is_empty t);
  Otable.add t 1 "a";
  Otable.add t 2 "b";
  Otable.add t 3 "c";
  checki "length" 3 (Otable.length t);
  checkb "mem" true (Otable.mem t 2);
  Alcotest.(check (option string)) "find" (Some "b") (Otable.find t 2);
  Alcotest.(check (option string)) "find absent" None (Otable.find t 9);
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
  Alcotest.(check (option string)) "new value" (Some "A") (Otable.find t 1);
  Alcotest.(check (list int)) "replaced key moved to end" [ 2; 1 ] (Otable.keys t)

let test_otable_iter_self_removal () =
  let t = Otable.create () in
  List.iter (fun k -> Otable.add t k k) [ 1; 2; 3; 4; 5 ];
  Otable.iter (fun k _ -> if k mod 2 = 0 then Otable.remove t k) t;
  Alcotest.(check (list int)) "odd keys remain" [ 1; 3; 5 ] (Otable.keys t)

(* --- Timer wheel --------------------------------------------------------------- *)

(* Drain a wheel and compare against a stable sort by key: same multiset,
   same order, ties in insertion order. *)
let wheel_drain_matches times =
  let w = Timer_wheel.create ~dummy:(-1) in
  List.iteri (fun i time -> Timer_wheel.add w ~time i) times;
  let rec drain acc =
    match Timer_wheel.pop w with
    | Some (t, v) -> drain ((t, v) :: acc)
    | None -> List.rev acc
  in
  let expect =
    List.stable_sort
      (fun (a, _) (b, _) -> Int.compare a b)
      (List.mapi (fun i t -> (t, i)) times)
  in
  drain [] = expect && Timer_wheel.is_empty w

let test_wheel_tiers () =
  (* keys on every tier: slot 0, low levels, high levels, past-horizon overflow *)
  checkb "mixed tiers drain sorted" true
    (wheel_drain_matches
       [ 7; 0; (1 lsl 41) + 3; 1 lsl 20; 31; 1 lsl 39; 32; 5; (1 lsl 41) + 3; 7 ])

(* The heap the engine used before the wheel, as the reference model: a
   min-heap on (time, seq) is a stable priority queue. *)
let reference_heap () =
  Heap.create ~cmp:(fun (ta, sa, _) (tb, sb, _) ->
      if ta <> tb then Int.compare ta tb else Int.compare sa sb)

let wheel_time_gen =
  QCheck.Gen.(
    oneof
      [
        int_bound 63;                                    (* level 0 *)
        int_bound ((1 lsl 22) - 1);                      (* mid levels *)
        map (fun x -> x + (1 lsl 38)) (int_bound 1000);  (* top level *)
        map (fun x -> x + (1 lsl 41)) (int_bound 1000);  (* overflow tier *)
      ])

let wheel_props =
  let time_list = QCheck.make ~print:QCheck.Print.(list int) QCheck.Gen.(list wheel_time_gen) in
  let ops =
    (* Some t = add at time t, None = pop *)
    QCheck.make
      ~print:QCheck.Print.(list (option int))
      QCheck.Gen.(list (frequency [ (3, map Option.some wheel_time_gen); (2, pure None) ]))
  in
  [
    QCheck.Test.make ~name:"wheel drains like a stable sort" ~count:300 time_list
      wheel_drain_matches;
    QCheck.Test.make ~name:"wheel matches heap under interleaved add/pop" ~count:300 ops
      (fun ops ->
        let w = Timer_wheel.create ~dummy:(-1) in
        let h = reference_heap () in
        let seq = ref 0 in
        (* the engine never schedules before [now]: floor each add at the
           last popped key so the wheel sees a monotone-feasible workload *)
        let floor_t = ref 0 in
        List.for_all
          (fun op ->
            match op with
            | Some t ->
                let t = max t !floor_t in
                Timer_wheel.add w ~time:t !seq;
                Heap.add h (t, !seq, !seq);
                incr seq;
                Timer_wheel.length w = Heap.length h
            | None -> (
                match (Timer_wheel.pop w, Heap.pop h) with
                | None, None -> true
                | Some (tw, vw), Some (th, _, vh) ->
                    floor_t := max !floor_t tw;
                    tw = th && vw = vh
                | _ -> false))
          ops)
  ]

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

(* Random timer programs against a model written here: every [set] is a
   cancel plus a fresh insert keyed by (deadline, call order), and one
   counter numbers sets, [at]s and [schedule]s alike. Timers 0-3
   are built once with [Engine.timer]; every dispatch runs the next two
   operations of the program's stream, so callbacks re-set their own
   timer or another one, cancel, and add one-shots at instants that
   collide. *)
type timer_op =
  | Set of int * int  (** timer, ms from now *)
  | Cancel of int
  | Same of int  (** timer, to the deadline of its last set, if not past *)
  | At of int
  | Schedule of int

let n_timers = 4

let print_timer_op = function
  | Set (i, d) -> Printf.sprintf "set %d +%d" i d
  | Cancel i -> Printf.sprintf "cancel %d" i
  | Same i -> Printf.sprintf "same %d" i
  | At d -> Printf.sprintf "at +%d" d
  | Schedule d -> Printf.sprintf "schedule +%d" d

let gen_timer_op =
  QCheck.Gen.(
    frequency
      [
        (5, map2 (fun i d -> Set (i, d)) (int_bound (n_timers - 1)) (int_bound 4));
        (2, map (fun i -> Cancel i) (int_bound (n_timers - 1)));
        (2, map (fun i -> Same i) (int_bound (n_timers - 1)));
        (1, map (fun d -> At d) (int_bound 4));
        (1, map (fun d -> Schedule d) (int_bound 4));
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

let ms d = d * 1_000_000

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
        last.(i) <- now + ms d;
        Engine.set !timers.(i) (Time.of_ns last.(i))
    | Cancel i -> Engine.cancel !timers.(i)
    | Same i -> if last.(i) >= now then Engine.set !timers.(i) (Time.of_ns last.(i))
    | At d -> ignore (Engine.at e (Time.of_ns (now + ms d)) (shot ()) : Engine.timer)
    | Schedule d -> Engine.schedule e (Time.of_ns (now + ms d)) (shot ())
  in
  timers := Array.init n_timers (fun i -> Engine.timer e (fire i));
  List.iter exec init;
  Engine.run e;
  (List.rev !log, Engine.events_executed e)

let model_log (init, stream) =
  let stream = ref stream and log = ref [] and shots = ref 0 and seq = ref 0 in
  let now = ref 0 in
  let last = Array.make n_timers (-1) in
  (* each timer's armed (deadline, seq), and the pending one-shots *)
  let armed = Array.make n_timers None and pending = ref [] in
  let next_seq () =
    incr seq;
    !seq
  in
  let exec = function
    | Set (i, d) ->
        last.(i) <- !now + ms d;
        armed.(i) <- Some (last.(i), next_seq ())
    | Cancel i -> armed.(i) <- None
    | Same i -> if last.(i) >= !now then armed.(i) <- Some (last.(i), next_seq ())
    | At d | Schedule d ->
        incr shots;
        pending := (!now + ms d, next_seq (), n_timers + !shots - 1) :: !pending
  in
  List.iter exec init;
  let rec loop () =
    let keys =
      !pending
      @ List.filter_map Fun.id
          (List.init n_timers (fun i -> Option.map (fun (t, s) -> (t, s, i)) armed.(i)))
    in
    match List.sort compare keys with
    | [] -> ()
    | ((t, _, id) as first) :: _ ->
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

let () =
  Alcotest.run "sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "arithmetic" `Quick test_time_arith;
        ] );
      ( "heap",
        [ Alcotest.test_case "ordering" `Quick test_heap_ordering ]
        @ List.map QCheck_alcotest.to_alcotest heap_props );
      ( "otable",
        [
          Alcotest.test_case "basics" `Quick test_otable_basics;
          Alcotest.test_case "insertion order" `Quick test_otable_insertion_order;
          Alcotest.test_case "replace moves to end" `Quick test_otable_replace_moves_to_end;
          Alcotest.test_case "iter self removal" `Quick test_otable_iter_self_removal;
        ] );
      ( "timer wheel",
        [ Alcotest.test_case "mixed tiers" `Quick test_wheel_tiers ]
        @ List.map QCheck_alcotest.to_alcotest wheel_props );
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
        ]
        @ List.map QCheck_alcotest.to_alcotest (engine_props @ [ prop_timer_model ]) );
    ]
