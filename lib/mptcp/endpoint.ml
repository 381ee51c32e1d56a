open Smapp_sim
open Smapp_tcp

type t = {
  stack : Stack.t;
  deps : Connection.internal_deps; (* shared by every connection of the endpoint *)
  metas : (int, Connection.t) Otable.t; (* local token -> connection *)
  mutable watchers : (Connection.t -> unit) list;
}

let stack t = t.stack
let host t = Stack.host t.stack
let engine t = t.deps.Connection.dep_engine
let connections t = Otable.to_list t.metas
let find_by_token t token = Otable.find t.metas token
let subscribe_new_connections t f = t.watchers <- t.watchers @ [ f ]

let of_host ?(cc = Cc.Lia) ?tcb_config host =
  let stack = Stack.attach host in
  let base = Option.value tcb_config ~default:Tcb.default_config in
  let metas = Otable.create () in
  let deps =
    {
      Connection.dep_engine = Stack.engine stack;
      dep_stack = stack;
      dep_rng = Engine.split_rng (Stack.engine stack);
      dep_tcb_config = { base with Tcb.cc_algo = cc };
      dep_token_in_use = Otable.mem metas;
      dep_on_meta_closed =
        (fun conn ->
          let token = Connection.local_token conn in
          match Otable.find metas token with
          | c -> if Connection.id c = Connection.id conn then Otable.remove metas token
          | exception Not_found -> ());
    }
  in
  { stack; deps; metas; watchers = [] }

let rec tell conn = function
  | [] -> ()
  | f :: fs ->
      f conn;
      tell conn fs

let register t conn =
  Otable.add t.metas (Connection.local_token conn) conn;
  tell conn t.watchers

let connect t ~src ~dst () =
  let conn = Connection.create_client t.deps ~scheduler:Scheduler.lowest_rtt ~src ~dst () in
  register t conn;
  conn

(* An MP_CAPABLE SYN opens a connection and an MP_JOIN joins the one its
   token names; the stack resets a SYN that opened no TCB. *)
let rec accept t on_accept syn = function
  | Options.Mp_capable { key } :: _ ->
      let conn =
        Connection.create_server t.deps ~scheduler:Scheduler.lowest_rtt ~syn ~client_key:key
      in
      register t conn;
      Connection.subscribe conn (function
        | Connection.Established -> on_accept conn
        | _ -> ());
      Connection.accept_initial conn syn
  | Options.Mp_join { token; nonce; addr_id; backup } :: _ -> (
      match find_by_token t token with
      | conn -> Connection.attach_join conn syn ~nonce ~addr_id ~backup
      | exception Not_found -> ())
  | _ :: rest -> accept t on_accept syn rest
  | [] -> () (* plain TCP is refused: this endpoint speaks MPTCP *)

let listen t ~port on_accept =
  Stack.listen t.stack ~port (fun syn -> accept t on_accept syn syn.Segment.options)
