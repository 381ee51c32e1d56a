(* A metrics registry of counters, gauges and log-bucketed histograms with
   static labels.

   Discipline: instrument-and-forget. Handles are created once at module
   initialisation (registration is unconditional, cheap and process-wide);
   every update entry point ([incr]/[add]/[set]/[observe]) is a load of
   [enabled] and a fall-through branch when observability is off — the same
   pattern as [Tcb.checks_enabled].

   Identity vs. state: a handle is pure identity (name, labels, bucket
   geometry, slot). The *values* live in a scope — an array of cells indexed
   by the handle's slot — and the current scope is domain-local state. Each
   domain starts with its own root scope, so parallel sweep workers never
   write to each other's cells, and [Smapp_par.Ctx] installs a fresh scope
   per job with [Scope.with_scope] so sequential and parallel runs observe
   byte-identical values. *)

type labels = (string * string) list

let enabled = Atomic.make false

type counter = { c_name : string; c_labels : labels; c_slot : int }
type gauge = { g_name : string; g_labels : labels; g_slot : int }

type histogram = {
  h_name : string;
  h_labels : labels;
  h_bounds : float array; (* ascending upper bounds; observations above the
                             last bound land in an implicit +Inf bucket *)
  h_slot : int;
}

type metric = M_counter of counter | M_gauge of gauge | M_histogram of histogram

let metric_name = function
  | M_counter c -> c.c_name
  | M_gauge g -> g.g_name
  | M_histogram h -> h.h_name

let metric_labels = function
  | M_counter c -> c.c_labels
  | M_gauge g -> g.g_labels
  | M_histogram h -> h.h_labels

(* --- registry (shared, mutex-guarded) ----------------------------------------- *)

(* Registration order is the export order, so the text exposition is
   deterministic (Hashtbl iteration never escapes). Handles are registered
   from module initialisers on the main domain, but the lock keeps late
   registration from a worker domain safe too. *)
let lock = Mutex.create ()
let registered : metric list ref = ref []
let index : (string * labels, metric) Hashtbl.t = Hashtbl.create 64
let help_of : (string, string) Hashtbl.t = Hashtbl.create 64
let next_slot = ref 0

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let register ~help name labels make =
  locked (fun () ->
      (match Hashtbl.find_opt help_of name with
      | None -> Hashtbl.replace help_of name help
      | Some existing ->
          if existing = "" && help <> "" then Hashtbl.replace help_of name help);
      match Hashtbl.find_opt index (name, labels) with
      | Some m -> m
      | None ->
          let slot = !next_slot in
          incr next_slot;
          let m = make slot in
          Hashtbl.replace index (name, labels) m;
          registered := !registered @ [ m ];
          m)

let kind_mismatch name =
  invalid_arg ("Metrics: " ^ name ^ " already registered with a different kind")

let counter ?(help = "") ?(labels = []) name =
  match
    register ~help name labels (fun slot ->
        M_counter { c_name = name; c_labels = labels; c_slot = slot })
  with
  | M_counter c -> c
  | M_gauge _ | M_histogram _ -> kind_mismatch name

let gauge ?(help = "") ?(labels = []) name =
  match
    register ~help name labels (fun slot ->
        M_gauge { g_name = name; g_labels = labels; g_slot = slot })
  with
  | M_gauge g -> g
  | M_counter _ | M_histogram _ -> kind_mismatch name

let default_base = 1_000.0 (* 1 us in ns *)
let default_growth = 4.0
let default_buckets = 16

let histogram ?(help = "") ?(labels = []) ?(base = default_base)
    ?(growth = default_growth) ?(buckets = default_buckets) name =
  if base <= 0.0 then invalid_arg "Metrics.histogram: base must be positive";
  if growth <= 1.0 then invalid_arg "Metrics.histogram: growth must exceed 1";
  if buckets < 1 then invalid_arg "Metrics.histogram: need at least one bucket";
  match
    register ~help name labels (fun slot ->
        let bounds = Array.init buckets (fun i -> base *. (growth ** float_of_int i)) in
        M_histogram { h_name = name; h_labels = labels; h_bounds = bounds; h_slot = slot })
  with
  | M_histogram h -> h
  | M_counter _ | M_gauge _ -> kind_mismatch name

(* --- scopes: where the values live --------------------------------------------- *)

type counter_cell = { mutable cc_value : int }
type gauge_cell = { mutable cg_value : float }
type hist_cell = { ch_counts : int array; mutable ch_sum : float; mutable ch_total : int }
type cell = Cell_counter of counter_cell | Cell_gauge of gauge_cell | Cell_hist of hist_cell

module Scope = struct
  (* Cells are created lazily on first touch so a scope built before a late
     registration still works; the array only ever grows. *)
  type t = { mutable cells : cell option array }

  let create () = { cells = Array.make (max 16 !next_slot) None }

  let key : t Domain.DLS.key = Domain.DLS.new_key (fun () -> create ())
  let current () = Domain.DLS.get key

  let with_scope scope f =
    let prev = Domain.DLS.get key in
    Domain.DLS.set key scope;
    Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

  let ensure scope slot mk =
    let n = Array.length scope.cells in
    if slot >= n then begin
      let grown = Array.make (max (slot + 1) (2 * n)) None in
      Array.blit scope.cells 0 grown 0 n;
      scope.cells <- grown
    end;
    match scope.cells.(slot) with
    | Some c -> c
    | None ->
        let c = mk () in
        scope.cells.(slot) <- Some c;
        c

  let clear scope = Array.fill scope.cells 0 (Array.length scope.cells) None
end

let counter_cell scope c =
  match Scope.ensure scope c.c_slot (fun () -> Cell_counter { cc_value = 0 }) with
  | Cell_counter cc -> cc
  | Cell_gauge _ | Cell_hist _ -> kind_mismatch c.c_name

let gauge_cell scope g =
  match Scope.ensure scope g.g_slot (fun () -> Cell_gauge { cg_value = 0.0 }) with
  | Cell_gauge cg -> cg
  | Cell_counter _ | Cell_hist _ -> kind_mismatch g.g_name

let hist_cell scope h =
  match
    Scope.ensure scope h.h_slot (fun () ->
        Cell_hist
          {
            ch_counts = Array.make (Array.length h.h_bounds + 1) 0;
            ch_sum = 0.0;
            ch_total = 0;
          })
  with
  | Cell_hist ch -> ch
  | Cell_counter _ | Cell_gauge _ -> kind_mismatch h.h_name

(* --- updates: one load and a branch when disabled --------------------------- *)

let incr c =
  if Atomic.get enabled then begin
    let cc = counter_cell (Scope.current ()) c in
    cc.cc_value <- cc.cc_value + 1
  end

let add c n =
  if Atomic.get enabled then begin
    let cc = counter_cell (Scope.current ()) c in
    cc.cc_value <- cc.cc_value + n
  end

let set g v =
  if Atomic.get enabled then begin
    let cg = gauge_cell (Scope.current ()) g in
    cg.cg_value <- v
  end

let bucket_index h v =
  let n = Array.length h.h_bounds in
  let rec go i = if i >= n then n else if v <= h.h_bounds.(i) then i else go (i + 1) in
  go 0

let observe h v =
  if Atomic.get enabled then begin
    let ch = hist_cell (Scope.current ()) h in
    let i = bucket_index h v in
    ch.ch_counts.(i) <- ch.ch_counts.(i) + 1;
    ch.ch_sum <- ch.ch_sum +. v;
    ch.ch_total <- ch.ch_total + 1
  end

(* --- inspection --------------------------------------------------------------- *)

let value c = (counter_cell (Scope.current ()) c).cc_value
let gauge_value g = (gauge_cell (Scope.current ()) g).cg_value
let bucket_bounds h = Array.copy h.h_bounds
let bucket_counts h = Array.copy (hist_cell (Scope.current ()) h).ch_counts
let histogram_sum h = (hist_cell (Scope.current ()) h).ch_sum
let histogram_count h = (hist_cell (Scope.current ()) h).ch_total
let clear () = Scope.clear (Scope.current ())

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

let type_name = function
  | M_counter _ -> "counter"
  | M_gauge _ -> "gauge"
  | M_histogram _ -> "histogram"

let render_metric scope buf = function
  | M_counter c ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s %d\n" c.c_name (render_labels c.c_labels)
           (counter_cell scope c).cc_value)
  | M_gauge g ->
      Buffer.add_string buf
        (Printf.sprintf "%s%s %s\n" g.g_name (render_labels g.g_labels)
           (float_str (gauge_cell scope g).cg_value))
  | M_histogram h ->
      let ch = hist_cell scope h in
      let cumulative = ref 0 in
      Array.iteri
        (fun i bound ->
          cumulative := !cumulative + ch.ch_counts.(i);
          Buffer.add_string buf
            (Printf.sprintf "%s_bucket%s %d\n" h.h_name
               (render_labels (h.h_labels @ [ ("le", float_str bound) ]))
               !cumulative))
        h.h_bounds;
      Buffer.add_string buf
        (Printf.sprintf "%s_bucket%s %d\n" h.h_name
           (render_labels (h.h_labels @ [ ("le", "+Inf") ]))
           ch.ch_total);
      Buffer.add_string buf
        (Printf.sprintf "%s_sum%s %s\n" h.h_name (render_labels h.h_labels)
           (float_str ch.ch_sum));
      Buffer.add_string buf
        (Printf.sprintf "%s_count%s %d\n" h.h_name (render_labels h.h_labels) ch.ch_total)

let snapshot_registered () = locked (fun () -> !registered)

let to_prometheus ?names () =
  let registered = snapshot_registered () in
  let scope = Scope.current () in
  let wanted m =
    match names with None -> true | Some ns -> List.mem (metric_name m) ns
  in
  let buf = Buffer.create 1024 in
  let seen = Hashtbl.create 16 in
  List.iter
    (fun m ->
      let name = metric_name m in
      if wanted m && not (Hashtbl.mem seen name) then begin
        Hashtbl.replace seen name ();
        (match Hashtbl.find_opt help_of name with
        | Some help when help <> "" ->
            Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help)
        | Some _ | None -> ());
        Buffer.add_string buf (Printf.sprintf "# TYPE %s %s\n" name (type_name m));
        List.iter
          (fun m' -> if metric_name m' = name then render_metric scope buf m')
          registered
      end)
    registered;
  Buffer.contents buf

let families () =
  List.map (fun m -> (metric_name m, metric_labels m, m)) (snapshot_registered ())

(* --- JSON exposition ----------------------------------------------------------- *)

let to_json ?names () =
  let open Smapp_stats.Json in
  let registered = snapshot_registered () in
  let scope = Scope.current () in
  let wanted m =
    match names with None -> true | Some ns -> List.mem (metric_name m) ns
  in
  let labels_json labels = Obj (List.map (fun (k, v) -> (k, String v)) labels) in
  let metric_json m =
    let value =
      match m with
      | M_counter c -> [ ("value", Int (counter_cell scope c).cc_value) ]
      | M_gauge g -> [ ("value", Float (gauge_cell scope g).cg_value) ]
      | M_histogram h ->
          let ch = hist_cell scope h in
          [
            ( "buckets",
              List
                (Array.to_list
                   (Array.mapi
                      (fun i bound ->
                        Obj [ ("le", Float bound); ("count", Int ch.ch_counts.(i)) ])
                      h.h_bounds)
                @ [
                    Obj
                      [
                        ("le", String "+Inf");
                        ("count", Int ch.ch_counts.(Array.length h.h_bounds));
                      ];
                  ]) );
            ("sum", Float ch.ch_sum);
            ("count", Int ch.ch_total);
          ]
    in
    Obj
      ([
         ("name", String (metric_name m));
         ("type", String (type_name m));
         ("labels", labels_json (metric_labels m));
       ]
      @ value)
  in
  List (List.filter_map (fun m -> if wanted m then Some (metric_json m) else None) registered)
