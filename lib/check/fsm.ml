open Smapp_netsim
open Smapp_tcp
open Smapp_mptcp

exception Conformance of string

(* === transition tables ======================================================= *)

(* No wildcards anywhere below: warning 8 is an error tree-wide, so a new
   state in either variant refuses to compile until these tables place it. *)

let tcp_successors : Tcp_info.state -> Tcp_info.state list = function
  | Tcp_info.Syn_sent -> [ Tcp_info.Established; Tcp_info.Closed ]
  | Tcp_info.Syn_received -> [ Tcp_info.Established; Tcp_info.Closed ]
  | Tcp_info.Established ->
      [ Tcp_info.Fin_wait_1; Tcp_info.Close_wait; Tcp_info.Closed ]
  | Tcp_info.Fin_wait_1 ->
      [ Tcp_info.Fin_wait_2; Tcp_info.Closing; Tcp_info.Time_wait; Tcp_info.Closed ]
  | Tcp_info.Fin_wait_2 -> [ Tcp_info.Time_wait; Tcp_info.Closed ]
  | Tcp_info.Close_wait -> [ Tcp_info.Last_ack; Tcp_info.Closed ]
  | Tcp_info.Closing -> [ Tcp_info.Time_wait; Tcp_info.Closed ]
  | Tcp_info.Last_ack -> [ Tcp_info.Closed ]
  | Tcp_info.Time_wait -> [ Tcp_info.Closed ]
  | Tcp_info.Closed -> []

let phase_successors : Connection.phase -> Connection.phase list = function
  | Connection.P_init ->
      [ Connection.P_established; Connection.P_draining; Connection.P_finning;
        Connection.P_closed ]
  | Connection.P_established ->
      [ Connection.P_draining; Connection.P_finning; Connection.P_closed ]
  | Connection.P_draining -> [ Connection.P_finning; Connection.P_closed ]
  | Connection.P_finning -> [ Connection.P_closed ]
  | Connection.P_closed -> []

let tcp_ix : Tcp_info.state -> int = function
  | Tcp_info.Syn_sent -> 0
  | Tcp_info.Syn_received -> 1
  | Tcp_info.Established -> 2
  | Tcp_info.Fin_wait_1 -> 3
  | Tcp_info.Fin_wait_2 -> 4
  | Tcp_info.Close_wait -> 5
  | Tcp_info.Closing -> 6
  | Tcp_info.Last_ack -> 7
  | Tcp_info.Time_wait -> 8
  | Tcp_info.Closed -> 9

let tcp_states =
  [ Tcp_info.Syn_sent; Tcp_info.Syn_received; Tcp_info.Established;
    Tcp_info.Fin_wait_1; Tcp_info.Fin_wait_2; Tcp_info.Close_wait;
    Tcp_info.Closing; Tcp_info.Last_ack; Tcp_info.Time_wait; Tcp_info.Closed ]

let phase_ix : Connection.phase -> int = function
  | Connection.P_init -> 0
  | Connection.P_established -> 1
  | Connection.P_draining -> 2
  | Connection.P_finning -> 3
  | Connection.P_closed -> 4

let phases =
  [ Connection.P_init; Connection.P_established; Connection.P_draining;
    Connection.P_finning; Connection.P_closed ]

let tcp_legal a b = List.mem b (tcp_successors a)
let phase_legal a b = List.mem b (phase_successors a)

(* === table self-check ======================================================== *)

let check_complete name all ix n err =
  let ids = List.map ix all in
  if List.length all <> n then Error (name ^ ": state list has the wrong length")
  else if List.length (List.sort_uniq Int.compare ids) <> n then
    Error (name ^ ": duplicate state in list")
  else err

let reaches succ terminal from =
  (* the graphs are tiny: a worklist walk is plenty *)
  let seen = Hashtbl.create 8 in
  let rec go = function
    | [] -> false
    | s :: rest ->
        if s = terminal then true
        else if Hashtbl.mem seen s then go rest
        else begin
          Hashtbl.add seen s ();
          go (succ s @ rest)
        end
  in
  go [ from ]

let self_check () =
  let ( >>= ) r f = match r with Error _ as e -> e | Ok () -> f () in
  check_complete "tcp" tcp_states tcp_ix 10 (Ok ()) >>= fun () ->
  check_complete "phase" phases phase_ix 5 (Ok ()) >>= fun () ->
  (if tcp_successors Tcp_info.Closed = [] then Ok ()
   else Error "tcp: Closed must be terminal")
  >>= fun () ->
  (if phase_successors Connection.P_closed = [] then Ok ()
   else Error "phase: P_closed must be terminal")
  >>= fun () ->
  (match
     List.find_opt
       (fun s -> s <> Tcp_info.Closed && not (reaches tcp_successors Tcp_info.Closed s))
       tcp_states
   with
  | Some s -> Error ("tcp: " ^ Tcp_info.state_to_string s ^ " cannot reach Closed")
  | None -> Ok ())
  >>= fun () ->
  (match
     List.find_opt
       (fun p ->
         p <> Connection.P_closed
         && not (reaches phase_successors Connection.P_closed p))
       phases
   with
  | Some p -> Error ("phase: " ^ Connection.phase_name p ^ " cannot reach P_closed")
  | None -> Ok ())
  >>= fun () ->
  (* the connection lifecycle is monotone: successors only move forward *)
  match
    List.find_opt
      (fun p -> List.exists (fun q -> phase_ix q <= phase_ix p) (phase_successors p))
      phases
  with
  | Some p -> Error ("phase: backward edge out of " ^ Connection.phase_name p)
  | None -> Ok ()

(* === runtime conformance ===================================================== *)

let trace_depth = 32

(* entity key -> newest-first bounded event trace. The table itself is
   analyzer-allowlisted: conformance runs are single-domain by design
   (install/uninstall bracket one sequential scenario). The counters are
   Atomic anyway so a stray parallel reader sees coherent values. *)
let traces : (string, string list ref) Hashtbl.t = Hashtbl.create 64
let seen = Atomic.make 0
let is_installed = Atomic.make false

let record key event =
  let tr =
    match Hashtbl.find_opt traces key with
    | Some tr -> tr
    | None ->
        let tr = ref [] in
        Hashtbl.replace traces key tr;
        tr
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  tr := take trace_depth (event :: !tr)

let trace_of key =
  match Hashtbl.find_opt traces key with
  | None | Some { contents = [] } -> "  (no recorded events)"
  | Some tr ->
      !tr |> List.rev
      |> List.map (fun e -> "  " ^ e)
      |> String.concat "\n"

let violation key edge =
  raise
    (Conformance
       (Printf.sprintf "%s: illegal transition %s\ntrace (oldest first):\n%s" key
          edge (trace_of key)))

let on_tcb_transition ~flow prev next =
  let key = Format.asprintf "subflow %a" Ip.pp_flow flow in
  let edge =
    Tcp_info.state_to_string prev ^ " -> " ^ Tcp_info.state_to_string next
  in
  record key edge;
  Atomic.incr seen;
  if not (tcp_legal prev next) then violation key edge

let on_phase_change ~id prev next =
  let key = Printf.sprintf "connection #%d" id in
  let edge = Connection.phase_name prev ^ " -> " ^ Connection.phase_name next in
  record key edge;
  Atomic.incr seen;
  if not (phase_legal prev next) then violation key edge

let on_subflow_open ~id phase =
  let key = Printf.sprintf "connection #%d" id in
  record key ("subflow registered at " ^ Connection.phase_name phase);
  Atomic.incr seen;
  match phase with
  | Connection.P_finning | Connection.P_closed ->
      violation key
        ("subflow registered after FIN (phase " ^ Connection.phase_name phase ^ ")")
  | Connection.P_init | Connection.P_established | Connection.P_draining -> ()

let install () =
  Hashtbl.reset traces;
  Atomic.set seen 0;
  Atomic.set Tcb.transition_hook on_tcb_transition;
  Atomic.set Connection.phase_hook on_phase_change;
  Atomic.set Connection.subflow_open_hook on_subflow_open;
  Atomic.set Tcb.checks_enabled true;
  Atomic.set is_installed true

let uninstall () =
  Atomic.set Tcb.checks_enabled false;
  Atomic.set Tcb.transition_hook (fun ~flow:_ _ _ -> ());
  Atomic.set Connection.phase_hook (fun ~id:_ _ _ -> ());
  Atomic.set Connection.subflow_open_hook (fun ~id:_ _ -> ());
  Hashtbl.reset traces;
  Atomic.set is_installed false

let installed () = Atomic.get is_installed
let transitions_seen () = Atomic.get seen
