(* Performance profiling on top of the trace/metrics discipline: where does
   wall time and allocation go, per subsystem and per event class?

   Two instruments keep their state in the current [Scope]:

   - Frames: subsystems bracket their work with [enter]/[exit_frame] (or
     [with_frame] off the hot path). Frames nest into a call tree keyed by
     label path; each node accumulates call count, wall time, allocated
     bytes, and — the number the flame report is built from — *self* time
     and *self* allocation, i.e. with every child frame's share subtracted.
     Summing self over the whole tree therefore reconciles exactly with the
     root totals, which is what lets `smapp prof` check itself against wall
     time and [Gc.allocated_bytes].

   - Event classes: [Smapp_sim.Engine.run] brackets every dispatched
     callback with [dispatch_begin]/[dispatch_end]; the callback names its
     class with [mark] (the last mark before the event ends wins, so a
     netlink crossing that runs controller listeners counts as a controller
     decision). Each class accumulates events, wall time, minor-heap bytes
     (a log2 bytes-per-event histogram), and minor/major collection counts.

   Discipline: every entry point loads the one switch and falls through
   when observability is off — the same budget as [Metrics]/[Trace].
   Measurement reads are ordered so the profiler's own allocations (GC stat
   records, tree nodes) are excluded from the deltas it reports:
   allocation counters are read *last* on entry and *first* on exit. *)

let enabled = Scope.enabled

module Scope = Scope

(* Wall clock in nanoseconds. The one wall-clock read in the library tree:
   profiling measures real CPU cost, which is exactly the quantity the
   determinism model excludes from results (allowlisted, like
   [Workload.run]'s wall_s). *)
let now_ns () = Unix.gettimeofday () *. 1e9

(* Allocated bytes since program start, same definition as
   [Gc.allocated_bytes] (minor + major - promoted), so frame totals
   reconcile with it directly. *)
let alloc_bytes () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted) *. float_of_int (Sys.word_size / 8)

(* --- event classes ------------------------------------------------------------ *)

type event_class = Timer | Link_delivery | Netlink | Controller

let class_index = function Timer -> 0 | Link_delivery -> 1 | Netlink -> 2 | Controller -> 3
let class_of_index = [| Timer; Link_delivery; Netlink; Controller |]

let class_name = function
  | Timer -> "timer"
  | Link_delivery -> "link-delivery"
  | Netlink -> "netlink"
  | Controller -> "controller"

(* log2 buckets for the bytes-per-event histogram: bucket i counts events
   that allocated (2^(i-1), 2^i] bytes, bucket 0 counts zero-alloc events. *)
let hist_index bytes =
  if bytes <= 0.0 then 0
  else
    let rec go i bound =
      if i >= Scope.hist_buckets - 1 || bytes <= bound then i else go (i + 1) (bound *. 2.0)
    in
    go 1 1.0

let rec find_child (children : Scope.node list) label =
  match children with
  | [] -> None
  | n :: rest -> if String.equal n.n_label label then Some n else find_child rest label

(* --- frames ------------------------------------------------------------------- *)

let enter label =
  if Atomic.get enabled then begin
    let s = Scope.current () in
    let d = s.Scope.depth in
    if d >= Scope.max_depth then begin
      s.Scope.truncated <- s.Scope.truncated + 1;
      s.Scope.depth <- d + 1
    end
    else begin
      let parent = if d = 0 then s.Scope.root else s.Scope.stack_node.(d - 1) in
      let n =
        match find_child parent.n_children label with
        | Some n -> n
        | None ->
            let n = Scope.node label in
            parent.n_children <- parent.n_children @ [ n ];
            n
      in
      s.Scope.stack_node.(d) <- n;
      s.Scope.stack_child_ns.(d) <- 0.0;
      s.Scope.stack_child_bytes.(d) <- 0.0;
      s.Scope.depth <- d + 1;
      (* counters last: the lookup/alloc above stays out of our own delta *)
      s.Scope.stack_t0.(d) <- now_ns ();
      s.Scope.stack_a0.(d) <- alloc_bytes ()
    end
  end

let exit_frame () =
  if Atomic.get enabled then begin
    let s = Scope.current () in
    if s.Scope.depth > 0 then begin
      (* counters first: tree bookkeeping below is excluded from the delta *)
      let a1 = alloc_bytes () in
      let t1 = now_ns () in
      let d = s.Scope.depth - 1 in
      s.Scope.depth <- d;
      if d < Scope.max_depth then begin
        let n = s.Scope.stack_node.(d) in
        let dur = t1 -. s.Scope.stack_t0.(d) in
        let bytes = a1 -. s.Scope.stack_a0.(d) in
        n.n_count <- n.n_count + 1;
        n.n_total_ns <- n.n_total_ns +. dur;
        n.n_total_bytes <- n.n_total_bytes +. bytes;
        n.n_self_ns <- n.n_self_ns +. (dur -. s.Scope.stack_child_ns.(d));
        n.n_self_bytes <- n.n_self_bytes +. (bytes -. s.Scope.stack_child_bytes.(d));
        if d > 0 && d - 1 < Scope.max_depth then begin
          s.Scope.stack_child_ns.(d - 1) <- s.Scope.stack_child_ns.(d - 1) +. dur;
          s.Scope.stack_child_bytes.(d - 1) <- s.Scope.stack_child_bytes.(d - 1) +. bytes
        end
      end
    end
  end

let with_frame label f =
  if Atomic.get enabled then begin
    enter label;
    Fun.protect ~finally:exit_frame f
  end
  else f ()

(* --- dispatch bracketing (driven by Engine.run) -------------------------------- *)

let mark cls =
  if Atomic.get enabled then (Scope.current ()).Scope.d_class <- class_index cls

(* [enter] plus [mark] under one enabled check — the shape hot callbacks use. *)
let enter_class cls label =
  if Atomic.get enabled then begin
    (Scope.current ()).Scope.d_class <- class_index cls;
    enter label
  end

(* The bracket runs around every event dispatch, so it must not allocate
   itself (beyond the wall-clock stub's boxed float return): the profiler's
   own garbage used to dominate total allocation and depress the very
   events/sec it was measuring. [Gc.minor_words] is an unboxed [@@noalloc]
   external, floats go into preallocated float arrays, and [Gc.quick_stat]
   (which builds a stat record per call) is paid only on dispatches where a
   minor GC actually ran — detected for free by comparing the minor-heap
   headroom drop against the words allocated. *)
let dispatch_begin () =
  let s = Scope.current () in
  s.Scope.d_class <- 0 (* Timer unless the callback marks otherwise *);
  s.Scope.d_minor_free0 <- Gc.get_minor_free ();
  let f = s.Scope.d_f in
  f.(0) <- now_ns ();
  f.(1) <- Gc.minor_words ()

let dispatch_end () =
  let words1 = Gc.minor_words () in
  let free1 = Gc.get_minor_free () in
  let t1 = now_ns () in
  let s = Scope.current () in
  let f = s.Scope.d_f in
  let c = s.Scope.classes.(s.Scope.d_class) in
  let words = words1 -. f.(1) in
  let bytes = words *. float_of_int (Sys.word_size / 8) in
  c.k_events <- c.k_events + 1;
  c.k_f.(0) <- c.k_f.(0) +. (t1 -. f.(0));
  c.k_f.(1) <- c.k_f.(1) +. bytes;
  let hi = hist_index bytes in
  c.k_hist.(hi) <- c.k_hist.(hi) + 1;
  s.Scope.d_events <- s.Scope.d_events + 1;
  (* with no GC, minor headroom drops by exactly the words allocated;
     any other trajectory means a collection ran during this dispatch *)
  if s.Scope.d_minor_free0 - free1 <> int_of_float words then begin
    let st = Gc.quick_stat () in
    let dminor = st.Gc.minor_collections - s.Scope.d_minor_last in
    let dmajor = st.Gc.major_collections - s.Scope.d_major_last in
    s.Scope.d_minor_last <- st.Gc.minor_collections;
    s.Scope.d_major_last <- st.Gc.major_collections;
    c.k_minor_gcs <- c.k_minor_gcs + dminor;
    c.k_major_gcs <- c.k_major_gcs + dmajor
  end

(* --- report ------------------------------------------------------------------- *)

type frame_stat = {
  f_label : string;
  f_count : int;
  f_total_ns : float;
  f_self_ns : float;
  f_total_bytes : float;
  f_self_bytes : float;
  f_children : frame_stat list;
}

type class_stat = {
  c_class : event_class;
  c_events : int;
  c_ns : float;
  c_bytes : float;
  c_minor_gcs : int;
  c_major_gcs : int;
  c_hist : int array; (* log2 bytes-per-event buckets; index 0 = 0 bytes *)
}

type report = {
  p_events : int; (* dispatches accounted by the engine brackets *)
  p_truncated : int;
  p_frames : frame_stat list;
  p_classes : class_stat list;
}

let rec freeze_node (n : Scope.node) =
  {
    f_label = n.n_label;
    f_count = n.n_count;
    f_total_ns = n.n_total_ns;
    f_self_ns = n.n_self_ns;
    f_total_bytes = n.n_total_bytes;
    f_self_bytes = n.n_self_bytes;
    f_children = List.map freeze_node n.n_children;
  }

let report () =
  let s = Scope.current () in
  {
    p_events = s.Scope.d_events;
    p_truncated = s.Scope.truncated;
    p_frames = List.map freeze_node s.Scope.root.n_children;
    p_classes =
      List.init Scope.class_count (fun i ->
          let c = s.Scope.classes.(i) in
          {
            c_class = class_of_index.(i);
            c_events = c.k_events;
            c_ns = c.k_f.(0);
            c_bytes = c.k_f.(1);
            c_minor_gcs = c.k_minor_gcs;
            c_major_gcs = c.k_major_gcs;
            c_hist = Array.copy c.k_hist;
          });
  }

let total_ns r = List.fold_left (fun acc f -> acc +. f.f_total_ns) 0.0 r.p_frames
let total_bytes r = List.fold_left (fun acc f -> acc +. f.f_total_bytes) 0.0 r.p_frames

let rec sum_self_ns f =
  List.fold_left (fun acc c -> acc +. sum_self_ns c) f.f_self_ns f.f_children

let rec sum_self_bytes f =
  List.fold_left (fun acc c -> acc +. sum_self_bytes c) f.f_self_bytes f.f_children

let pp_bytes b =
  let b = Float.abs b and sign = if b < 0.0 then "-" else "" in
  if b >= 1e9 then Printf.sprintf "%s%.2f GB" sign (b /. 1e9)
  else if b >= 1e6 then Printf.sprintf "%s%.2f MB" sign (b /. 1e6)
  else if b >= 1e3 then Printf.sprintf "%s%.1f kB" sign (b /. 1e3)
  else Printf.sprintf "%s%.0f B" sign b

let pp_ns ns =
  let ns = Float.abs ns and sign = if ns < 0.0 then "-" else "" in
  if ns >= 1e9 then Printf.sprintf "%s%.3f s" sign (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%s%.2f ms" sign (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%s%.2f us" sign (ns /. 1e3)
  else Printf.sprintf "%s%.0f ns" sign ns

(* The flame-style tree: one row per node, indented, with a bar scaled to
   the node's share of the grand total and both total and self columns. *)
let render r =
  let buf = Buffer.create 2048 in
  let grand_ns = total_ns r and grand_bytes = total_bytes r in
  Buffer.add_string buf
    (Printf.sprintf
       "frames: %s wall, %s allocated across %d top-level frame(s)%s\n"
       (pp_ns grand_ns) (pp_bytes grand_bytes)
       (List.length r.p_frames)
       (if r.p_truncated > 0 then
          Printf.sprintf " (%d frames beyond depth %d not recorded)" r.p_truncated
            Scope.max_depth
        else ""));
  let bar_width = 24 in
  let rec row indent f =
    let share = if grand_ns > 0.0 then f.f_total_ns /. grand_ns else 0.0 in
    let self_share = if grand_ns > 0.0 then f.f_self_ns /. grand_ns else 0.0 in
    let bar =
      let filled = int_of_float (share *. float_of_int bar_width +. 0.5) in
      let filled = max 0 (min bar_width filled) in
      String.make filled '#' ^ String.make (bar_width - filled) '.'
    in
    Buffer.add_string buf
      (Printf.sprintf "%s %-*s %9d  %10s %5.1f%%  self %10s %5.1f%%  %10s  self %10s\n"
         bar
         (max 1 (28 - String.length indent))
         (indent ^ f.f_label) f.f_count (pp_ns f.f_total_ns) (share *. 100.0)
         (pp_ns f.f_self_ns) (self_share *. 100.0)
         (pp_bytes f.f_total_bytes) (pp_bytes f.f_self_bytes));
    List.iter (row (indent ^ "  ")) f.f_children
  in
  List.iter (row "") r.p_frames;
  (* event classes *)
  if r.p_events > 0 then begin
    Buffer.add_string buf
      (Printf.sprintf "\nevent classes (%d dispatches):\n" r.p_events);
    Buffer.add_string buf
      "class           events      ns/event   bytes/event   minor-gc  major-gc\n";
    List.iter
      (fun c ->
        if c.c_events > 0 then
          Buffer.add_string buf
            (Printf.sprintf "%-13s %8d  %12.1f  %12.1f  %9d %9d\n"
               (class_name c.c_class) c.c_events
               (c.c_ns /. float_of_int c.c_events)
               (c.c_bytes /. float_of_int c.c_events)
               c.c_minor_gcs c.c_major_gcs))
      r.p_classes
  end;
  Buffer.contents buf

let report_json r =
  let open Smapp_stats.Json in
  let rec frame_json f =
    Obj
      [
        ("label", String f.f_label);
        ("count", Int f.f_count);
        ("total_ns", Float f.f_total_ns);
        ("self_ns", Float f.f_self_ns);
        ("total_bytes", Float f.f_total_bytes);
        ("self_bytes", Float f.f_self_bytes);
        ("children", List (List.map frame_json f.f_children));
      ]
  in
  let class_json c =
    Obj
      [
        ("class", String (class_name c.c_class));
        ("events", Int c.c_events);
        ("ns", Float c.c_ns);
        ("bytes", Float c.c_bytes);
        ("minor_gcs", Int c.c_minor_gcs);
        ("major_gcs", Int c.c_major_gcs);
        ( "bytes_per_event_log2_hist",
          List (Array.to_list (Array.map (fun n -> Int n) c.c_hist)) );
      ]
  in
  Obj
    [
      ("events", Int r.p_events);
      ("truncated_frames", Int r.p_truncated);
      ("frames", List (List.map frame_json r.p_frames));
      ("classes", List (List.map class_json r.p_classes));
    ]
