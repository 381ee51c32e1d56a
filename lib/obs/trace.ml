(* Bounded ring buffer of structured trace events, stamped with virtual
   time (nanoseconds from the clock [Smapp_sim.Engine] installs in the
   current [Scope]). When the ring is full the oldest events are
   overwritten: tracing a long run keeps the tail, and [dropped] reports
   how much history was evicted. The ring and the clock live in the
   current scope, beside the metric cells and the profiler's state. *)

type kind = Scope.kind = Complete | Instant

type event = Scope.event = {
  ev_ts_ns : int;
  ev_dur_ns : int; (* 0 for instants *)
  ev_name : string;
  ev_cat : string;
  ev_args : (string * string) list;
  ev_kind : kind;
}

(* --- clock -------------------------------------------------------------------- *)

let set_clock f = (Scope.current ()).Scope.clock <- f
let now_ns () = (Scope.current ()).Scope.clock ()

(* --- ring --------------------------------------------------------------------- *)

let capacity () = Array.length (Scope.current ()).Scope.ring

let set_capacity n =
  if n < 1 then invalid_arg "Trace.set_capacity: need at least one slot";
  let s = Scope.current () in
  s.Scope.ring <- Array.make n Scope.no_event;
  s.Scope.write_ix <- 0;
  s.Scope.total <- 0

let recorded () = (Scope.current ()).Scope.total
let dropped () = max 0 (recorded () - capacity ())

let push ev =
  let s = Scope.current () in
  let cap = Array.length s.Scope.ring in
  s.Scope.ring.(s.Scope.write_ix) <- ev;
  s.Scope.write_ix <- (s.Scope.write_ix + 1) mod cap;
  s.Scope.total <- s.Scope.total + 1

let events () =
  let s = Scope.current () in
  let cap = Array.length s.Scope.ring in
  let n = min s.Scope.total cap in
  let first = if s.Scope.total <= cap then 0 else s.Scope.write_ix in
  List.init n (fun i -> s.Scope.ring.((first + i) mod cap))

(* --- recording ---------------------------------------------------------------- *)

let instant ?(args = []) ~cat name =
  if Atomic.get Scope.enabled then
    push
      {
        ev_ts_ns = now_ns ();
        ev_dur_ns = 0;
        ev_name = name;
        ev_cat = cat;
        ev_args = args;
        ev_kind = Instant;
      }

let complete ?(args = []) ~cat ~start_ns ?end_ns name =
  if Atomic.get Scope.enabled then begin
    let end_ns = match end_ns with Some e -> e | None -> now_ns () in
    push
      {
        ev_ts_ns = start_ns;
        ev_dur_ns = max 0 (end_ns - start_ns);
        ev_name = name;
        ev_cat = cat;
        ev_args = args;
        ev_kind = Complete;
      }
  end

let with_span ~cat name f =
  if Atomic.get Scope.enabled then begin
    let start_ns = now_ns () in
    let finally () = complete ~cat ~start_ns name in
    Fun.protect ~finally f
  end
  else f ()

(* --- Chrome trace_event exporter ---------------------------------------------- *)

(* chrome://tracing and https://ui.perfetto.dev load this directly: complete
   spans are "X" events with microsecond [ts]/[dur], instants are "i". *)
let chrome_json () =
  let open Smapp_stats.Json in
  let us ns = float_of_int ns /. 1000.0 in
  let args_obj args = Obj (List.map (fun (k, v) -> (k, String v)) args) in
  let base ev ph =
    [
      ("name", String ev.ev_name);
      ("cat", String ev.ev_cat);
      ("ph", String ph);
      ("ts", Float (us ev.ev_ts_ns));
      ("pid", Int 1);
      ("tid", Int 1);
    ]
  in
  let to_json ev =
    match ev.ev_kind with
    | Complete ->
        Obj
          (base ev "X"
          @ [ ("dur", Float (us ev.ev_dur_ns)); ("args", args_obj ev.ev_args) ])
    | Instant -> Obj (base ev "i" @ [ ("s", String "g"); ("args", args_obj ev.ev_args) ])
  in
  Obj
    [
      ("traceEvents", List (List.map to_json (events ())));
      ("displayTimeUnit", String "ms");
    ]

let export_chrome () = Smapp_stats.Json.to_string (chrome_json ())
let export_chrome_file path = Smapp_stats.Json.to_file path (chrome_json ())

(* --- ASCII timeline + span statistics ------------------------------------------ *)

(* Distinct (cat, name) pairs in first-appearance order. *)
let track_keys evs =
  List.rev
    (List.fold_left
       (fun acc ev ->
         let key = (ev.ev_cat, ev.ev_name) in
         if List.mem key acc then acc else key :: acc)
       [] evs)

let max_tracks = 24

let timeline ?(width = 64) () =
  match events () with
  | [] -> "(no trace events)\n"
  | evs ->
      let t0 = List.fold_left (fun acc ev -> min acc ev.ev_ts_ns) max_int evs in
      let t1 =
        List.fold_left (fun acc ev -> max acc (ev.ev_ts_ns + ev.ev_dur_ns)) min_int evs
      in
      let span = max 1 (t1 - t0) in
      let col ts = min (width - 1) ((ts - t0) * width / span) in
      let keys = track_keys evs in
      let keys, elided =
        if List.length keys <= max_tracks then (keys, 0)
        else (List.filteri (fun i _ -> i < max_tracks) keys, List.length keys - max_tracks)
      in
      let label (cat, name) = cat ^ ":" ^ name in
      let label_width =
        List.fold_left (fun acc k -> max acc (String.length (label k))) 8 keys
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf
        (Printf.sprintf "%-*s  %.3f ms .. %.3f ms (%d events, %d evicted)\n"
           label_width "track"
           (float_of_int t0 /. 1e6)
           (float_of_int t1 /. 1e6)
           (List.length evs) (dropped ()));
      List.iter
        (fun key ->
          let row = Bytes.make width '.' in
          List.iter
            (fun ev ->
              if (ev.ev_cat, ev.ev_name) = key then
                match ev.ev_kind with
                | Instant -> Bytes.set row (col ev.ev_ts_ns) '|'
                | Complete ->
                    let a = col ev.ev_ts_ns
                    and b = col (ev.ev_ts_ns + ev.ev_dur_ns) in
                    for i = a to b do
                      Bytes.set row i '='
                    done)
            evs;
          Buffer.add_string buf
            (Printf.sprintf "%-*s  %s\n" label_width (label key) (Bytes.to_string row)))
        keys;
      if elided > 0 then
        Buffer.add_string buf (Printf.sprintf "(+%d more tracks elided)\n" elided);
      Buffer.contents buf

let span_durations_us () =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun ev ->
      if ev.ev_kind = Complete then begin
        let key = ev.ev_cat ^ ":" ^ ev.ev_name in
        (match Hashtbl.find_opt tbl key with
        | Some l -> l := (float_of_int ev.ev_dur_ns /. 1e3) :: !l
        | None ->
            Hashtbl.replace tbl key (ref [ float_of_int ev.ev_dur_ns /. 1e3 ]);
            order := key :: !order)
      end)
    (events ());
  List.rev_map (fun key -> (key, List.rev !(Hashtbl.find tbl key))) !order

let span_summary () =
  List.map
    (fun (key, samples) -> (key, Smapp_stats.Summary.of_samples samples))
    (span_durations_us ())

let summary_table () =
  match span_summary () with
  | [] -> "(no spans recorded)\n"
  | rows ->
      let table =
        Smapp_stats.Table.create
          [ "span"; "count"; "mean us"; "min us"; "max us"; "total us" ]
      in
      List.iter
        (fun (key, s) ->
          Smapp_stats.Table.add_row table
            [
              key;
              string_of_int s.Smapp_stats.Summary.count;
              Printf.sprintf "%.2f" s.Smapp_stats.Summary.mean;
              Printf.sprintf "%.2f" s.Smapp_stats.Summary.min;
              Printf.sprintf "%.2f" s.Smapp_stats.Summary.max;
              Printf.sprintf "%.1f"
                (s.Smapp_stats.Summary.mean *. float_of_int s.Smapp_stats.Summary.count);
            ])
        rows;
      Smapp_stats.Table.to_string table

let mean_duration_us ~cat ~name =
  match List.assoc_opt (cat ^ ":" ^ name) (span_durations_us ()) with
  | None | Some [] -> None
  | Some samples ->
      Some (List.fold_left ( +. ) 0.0 samples /. float_of_int (List.length samples))
