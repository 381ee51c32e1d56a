(* The one observability switch and the one scope.

   [Metrics], [Trace] and [Prof] keep everything they record in a scope:
   the metric cells, the trace ring and its clock, and the profiler's frame
   tree and event-class cells. The current scope is domain-local. Each
   domain starts with a root scope of its own, so parallel lanes never
   write to each other's state, and [with_scope] installs a fresh scope
   around one job ([Smapp_par.Sweep.map] does so for every pooled job).

   [enabled] switches all three at once. Off (the default), every
   recording entry point is one atomic load and a fall-through branch.
   The instruments only read simulation state, so switching them on
   changes no simulated result.

   No interface: the record below is the three instruments' shared state,
   and an interface would restate every type in it. Outside lib/obs, use
   [enabled], [create], [current], [with_scope], [clear] and [recording]. *)

let enabled = Atomic.make false

(* --- Metrics: one cell per registered handle, made on first touch ------------ *)

(* One shape for every kind: [n] is a counter's value or a histogram's
   observation count, [v] a gauge's value or a histogram's sum, [buckets]
   a histogram's per-bucket counts ([||] for the other kinds). *)
type cell = { mutable n : int; mutable v : float; buckets : int array }

(* --- Trace: a ring of events stamped by the installed clock ------------------- *)

type kind = Complete | Instant

type event = {
  ev_ts_ns : int;
  ev_dur_ns : int; (* 0 for instants *)
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
  ev_kind : kind;
}

let no_event =
  { ev_ts_ns = 0; ev_dur_ns = 0; ev_name = ""; ev_cat = ""; ev_args = []; ev_kind = Instant }

let default_capacity = 1 lsl 16

(* --- Prof: the call tree and the event-class cells ----------------------------- *)

(* Children as an ordered list: subsystem fan-out is a handful of static
   labels, so linear lookup beats a hashtable and keeps first-appearance
   order for deterministic rendering. *)
type node = {
  n_label : string;
  mutable n_count : int;
  mutable n_total_ns : float;
  mutable n_self_ns : float;
  mutable n_total_bytes : float;
  mutable n_self_bytes : float;
  mutable n_children : node list; (* first-appearance order *)
}

let node label =
  { n_label = label; n_count = 0; n_total_ns = 0.0; n_self_ns = 0.0;
    n_total_bytes = 0.0; n_self_bytes = 0.0; n_children = [] }

(* Cells for the log2 bytes-per-event histogram (see [Prof.hist_index]). *)
let hist_buckets = 24

type class_cell = {
  mutable k_events : int;
  k_f : float array; (* 0 = ns, 1 = minor-heap bytes allocated during dispatch.
                        A float array, not mutable float fields: stores into a
                        mixed record box, and these are written per dispatch. *)
  mutable k_minor_gcs : int;
  mutable k_major_gcs : int;
  k_hist : int array; (* log2 bytes-per-event buckets *)
}

let class_cell () =
  { k_events = 0; k_f = Array.make 2 0.0; k_minor_gcs = 0; k_major_gcs = 0;
    k_hist = Array.make hist_buckets 0 }

let class_count = 4
let max_depth = 128

(* --- the scope ----------------------------------------------------------------- *)

type t = {
  (* Metrics: indexed by handle slot; grows for a late registration *)
  mutable cells : cell option array;
  (* Trace. The ring is built at [capacity] slots when the first event is
     pushed: an untraced run never builds one. *)
  mutable clock : unit -> int; (* virtual ns; [Smapp_sim.Engine] installs it *)
  mutable capacity : int;
  mutable ring : event array;
  mutable write_ix : int;
  mutable total : int; (* events recorded, evicted ones included *)
  (* Prof: a virtual root whose children are the top-level frames, and a
     preallocated frame stack, so enter/exit allocate nothing *)
  mutable root : node;
  classes : class_cell array;
  mutable depth : int;
  stack_node : node array;
  stack_t0 : float array;
  stack_a0 : float array;
  stack_child_ns : float array;
  stack_child_bytes : float array;
  mutable truncated : int; (* enters beyond [max_depth], recorded nowhere *)
  (* Prof's dispatch bracket. Floats live in [d_f] (0 = t0, 1 = words0)
     because storing a float into a mixed record boxes it, and the bracket
     runs around every single event dispatch. *)
  mutable d_class : int;
  d_f : float array;
  mutable d_minor_free0 : int; (* Gc.get_minor_free at dispatch_begin *)
  mutable d_minor_last : int; (* minor_collections at the last quick_stat *)
  mutable d_major_last : int;
  mutable d_events : int;
}

let create () =
  {
    cells = Array.make 64 None;
    clock = (fun () -> 0);
    capacity = default_capacity;
    ring = [||];
    write_ix = 0;
    total = 0;
    root = node "(root)";
    classes = Array.init class_count (fun _ -> class_cell ());
    depth = 0;
    stack_node = Array.make max_depth (node "(root)");
    stack_t0 = Array.make max_depth 0.0;
    stack_a0 = Array.make max_depth 0.0;
    stack_child_ns = Array.make max_depth 0.0;
    stack_child_bytes = Array.make max_depth 0.0;
    truncated = 0;
    d_class = 0;
    d_f = Array.make 2 0.0;
    d_minor_free0 = 0;
    d_minor_last = 0;
    d_major_last = 0;
    d_events = 0;
  }

let key : t Domain.DLS.key = Domain.DLS.new_key create
let current () = Domain.DLS.get key

let with_scope scope f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key scope;
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* Zero what the current scope recorded: metric values (registrations
   survive), trace events (the ring goes; capacity and clock stay), frames
   and event classes. *)
let clear () =
  let s = current () in
  Array.fill s.cells 0 (Array.length s.cells) None;
  s.ring <- [||];
  s.write_ix <- 0;
  s.total <- 0;
  let st = Gc.quick_stat () in
  s.d_minor_last <- st.Gc.minor_collections;
  s.d_major_last <- st.Gc.major_collections;
  s.root <- node "(root)";
  Array.iteri (fun i _ -> s.classes.(i) <- class_cell ()) s.classes;
  s.depth <- 0;
  s.truncated <- 0;
  s.d_events <- 0

(* Run [f] with observability on, from a cleared current scope; the switch
   is restored afterwards, and what [f] recorded stays in the scope for the
   caller to read or export. *)
let recording f =
  let was = Atomic.get enabled in
  Atomic.set enabled true;
  clear ();
  Fun.protect ~finally:(fun () -> Atomic.set enabled was) f
