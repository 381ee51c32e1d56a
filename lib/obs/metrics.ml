(* A metrics registry of counters, gauges and log-bucketed histograms with
   static labels.

   Discipline: instrument-and-forget. Handles are created once at module
   initialisation (registration is unconditional, cheap and process-wide);
   every update entry point ([incr]/[add]/[set]/[observe]) is a load of
   the one switch, [Scope.enabled], and a fall-through branch when
   observability is off — the same pattern as [Tcb.checks_enabled].

   Identity vs. state: every metric, whatever its kind, is one handle of
   pure identity (name, labels, kind with a histogram's bucket bounds,
   slot). Its *values* live in the current [Scope], in the one cell
   indexed by the handle's slot, which is domain-local, so parallel
   sweep workers never write to each other's cells and sequential and
   parallel runs observe byte-identical values. The interface keeps
   [counter], [gauge] and [histogram] apart; here they are one type. *)

type labels = (string * string) list

let enabled = Scope.enabled

module Scope = Scope

(* A histogram's ascending upper bounds; observations above the last one
   land in an implicit +Inf bucket. *)
type kind = Counter | Gauge | Histogram of float array
type handle = { name : string; labels : labels; kind : kind; slot : int }
type counter = handle
type gauge = handle
type histogram = handle

let kind_name = function Counter -> "counter" | Gauge -> "gauge" | Histogram _ -> "histogram"

(* --- registry (shared, mutex-guarded) ----------------------------------------- *)

(* Registration order is the export order, so the text exposition is
   deterministic (Hashtbl iteration never escapes). Handles are registered
   from module initialisers on the main domain, but the lock keeps late
   registration from a worker domain safe too. *)
let lock = Mutex.create ()
let registered : handle list ref = ref []
let index : (string * labels, handle) Hashtbl.t = Hashtbl.create 64
let help_of : (string, string) Hashtbl.t = Hashtbl.create 64
let next_slot = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register ?(help = "") ?(labels = []) name kind =
  let h =
    locked (fun () ->
        (match Hashtbl.find_opt help_of name with
        | None -> Hashtbl.replace help_of name help
        | Some existing ->
            if existing = "" && help <> "" then Hashtbl.replace help_of name help);
        match Hashtbl.find_opt index (name, labels) with
        | Some h -> h
        | None ->
            let h = { name; labels; kind; slot = !next_slot } in
            incr next_slot;
            Hashtbl.replace index (name, labels) h;
            registered := !registered @ [ h ];
            h)
  in
  if kind_name h.kind <> kind_name kind then
    invalid_arg ("Metrics: " ^ name ^ " already registered with a different kind");
  h

let counter ?help ?labels name = register ?help ?labels name Counter
let gauge ?help name = register ?help name Gauge

let default_base = 1_000.0 (* 1 us in ns *)
let default_growth = 4.0
let default_buckets = 16

let histogram ?help ?labels ?(base = default_base) ?(growth = default_growth)
    ?(buckets = default_buckets) name =
  if base <= 0.0 then invalid_arg "Metrics.histogram: base must be positive";
  if growth <= 1.0 then invalid_arg "Metrics.histogram: growth must exceed 1";
  if buckets < 1 then invalid_arg "Metrics.histogram: need at least one bucket";
  register ?help ?labels name
    (Histogram (Array.init buckets (fun i -> base *. (growth ** float_of_int i))))

let bounds h = match h.kind with Histogram b -> b | Counter | Gauge -> [||]

(* --- cells in the current scope ------------------------------------------------- *)

(* A handle's cell, made on first touch; a scope built before a late
   registration grows to the new slot. *)
let cell (scope : Scope.t) h =
  let n = Array.length scope.cells in
  if h.slot >= n then begin
    let grown = Array.make (max (h.slot + 1) (2 * n)) None in
    Array.blit scope.cells 0 grown 0 n;
    scope.cells <- grown
  end;
  match scope.cells.(h.slot) with
  | Some c -> c
  | None ->
      let buckets =
        match h.kind with Histogram b -> Array.make (Array.length b + 1) 0 | Counter | Gauge -> [||]
      in
      let c = { Scope.n = 0; v = [| 0.0 |]; buckets } in
      scope.cells.(h.slot) <- Some c;
      c

(* --- updates: one load and a branch when disabled --------------------------- *)

let incr c =
  if Atomic.get enabled then begin
    let x = cell (Scope.current ()) c in
    x.n <- x.n + 1
  end

let add c k =
  if Atomic.get enabled then begin
    let x = cell (Scope.current ()) c in
    x.n <- x.n + k
  end

let set g v = if Atomic.get enabled then (cell (Scope.current ()) g).v.(0) <- v

(* The first bucket from [i] whose bound is at least [v]; [Array.length b]
   is the +Inf bucket. Top-level and annotated, so it builds no closure
   and reads each bound unboxed. *)
let rec bucket_from (b : float array) (v : float) i =
  if i >= Array.length b || v <= b.(i) then i else bucket_from b v (i + 1)

let observe h v =
  if Atomic.get enabled then begin
    let x = cell (Scope.current ()) h in
    let i = bucket_from (bounds h) v 0 in
    x.buckets.(i) <- x.buckets.(i) + 1;
    x.v.(0) <- x.v.(0) +. v;
    x.n <- x.n + 1
  end

(* --- inspection --------------------------------------------------------------- *)

let value c = (cell (Scope.current ()) c).n
let gauge_value g = (cell (Scope.current ()) g).v.(0)
let bucket_bounds h = Array.copy (bounds h)
let bucket_counts h = Array.copy (cell (Scope.current ()) h).buckets
let histogram_sum h = (cell (Scope.current ()) h).v.(0)
let histogram_count h = (cell (Scope.current ()) h).n

(* --- Prometheus text exposition ---------------------------------------------- *)

let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%.12g" f

let escape_label s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render_labels = function
  | [] -> ""
  | labels ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) labels)
      ^ "}"

let render_metric scope buf h =
  let c = cell scope h in
  match h.kind with
  | Counter ->
      Buffer.add_string buf (Printf.sprintf "%s%s %d\n" h.name (render_labels h.labels) c.n)
  | Gauge ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" h.name (render_labels h.labels) (float_str c.v.(0)))
  | Histogram bounds ->
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + c.buckets.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" h.name
               (render_labels (h.labels @ [ ("le", float_str bound) ]))
               !cumulative))
        bounds;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" h.name
           (render_labels (h.labels @ [ ("le", "+Inf") ]))
           c.n);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" h.name (render_labels h.labels) (float_str c.v.(0)));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" h.name (render_labels h.labels) c.n)

let snapshot_registered () = locked (fun () -> !registered)

let to_prometheus ?names () =
  let registered = snapshot_registered () in
  let scope = Scope.current () in
  let wanted name = match names with None -> true | Some ns -> List.mem name ns in
  let buf = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun { name; kind; _ } ->
      if wanted name && not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        (match Hashtbl.find_opt help_of name with
        | Some help when help <> "" ->
            Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help)
        | Some _ | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (kind_name kind));
        List.iter (fun h -> if h.name = name then render_metric scope buf h) registered
      end)
    registered;
  Buffer.contents buf

let families () = List.map (fun h -> (h.name, h.labels)) (snapshot_registered ())

(* --- JSON exposition ----------------------------------------------------------- *)

let to_json () =
  let open Smapp_stats.Json in
  let registered = snapshot_registered () in
  let scope = Scope.current () in
  let labels_json labels = Obj (List.map (fun (k, v) -> (k, String v)) labels) in
  let metric_json h =
    let c = cell scope h in
    let value =
      match h.kind with
      | Counter -> [ ("value", Int c.n) ]
      | Gauge -> [ ("value", Float c.v.(0)) ]
      | Histogram bounds ->
          [
            ( "buckets",
              List
                (Array.to_list
                   (Array.mapi
                      (fun i bound -> Obj [ ("le", Float bound); ("count", Int c.buckets.(i)) ])
                      bounds)
                @ [
                    Obj
                      [
                        ("le", String "+Inf"); ("count", Int c.buckets.(Array.length bounds));
                      ];
                  ]) );
            ("sum", Float c.v.(0));
            ("count", Int c.n);
          ]
    in
    Obj
      ([
         ("name", String h.name);
         ("type", String (kind_name h.kind));
         ("labels", labels_json h.labels);
       ]
      @ value)
  in
  List (List.map metric_json registered)
