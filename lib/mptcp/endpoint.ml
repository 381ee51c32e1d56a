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
          | Some c when Connection.id c = Connection.id conn -> Otable.remove metas token
          | Some _ | None -> ());
    }
  in
  { stack; deps; metas; watchers = [] }

let register t conn =
  Otable.add t.metas (Connection.local_token conn) conn;
  List.iter (fun f -> f conn) t.watchers

let connect t ~src ~dst () =
  let conn = Connection.create_client t.deps ~scheduler:Scheduler.lowest_rtt ~src ~dst () in
  register t conn;
  conn

let listen t ~port on_accept =
  Stack.listen t.stack ~port (fun syn ->
      match Options.find_capable syn.Segment.options with
      | Some client_key ->
          let conn, accept =
            Connection.create_server t.deps ~scheduler:Scheduler.lowest_rtt ~syn
              ~client_key
          in
          register t conn;
          Connection.subscribe conn (function
            | Connection.Established -> on_accept conn
            | _ -> ());
          Some accept
      | None -> (
          match Options.find_join syn.Segment.options with
          | Some ((token, _, _, _) as join) -> (
              match find_by_token t token with
              | Some conn -> Connection.attach_join conn ~syn ~join
              | None -> None)
          | None -> None (* plain TCP is refused: this endpoint speaks MPTCP *)))
