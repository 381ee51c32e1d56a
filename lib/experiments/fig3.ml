open Smapp_sim
open Smapp_netsim
open Smapp_mptcp
module Setup = Smapp_core.Setup
module Channel = Smapp_netlink.Channel

type variant = Kernel | Userspace

let variant_name = function Kernel -> "kernel" | Userspace -> "userspace"

type result = {
  variant : variant;
  stress : float;
  delays : float list;
  requests_completed : int;
}

let run ?(seed = 42) ?(requests = 1000) ?(file_bytes = 512 * 1024) ?(stress = 1.0)
    ~variant () =
  let engine = Engine.create ~seed () in
  let topo = Topology.direct_link engine ~rate_bps:1e9 ~delay:(Time.span_us 50) () in
  let client_ep = Endpoint.of_host topo.Topology.client in
  let server_ep = Endpoint.of_host topo.Topology.server in
  let client_addr = List.hd (Host.addresses topo.Topology.client) in
  let server_addr = List.hd (Host.addresses topo.Topology.server) in
  (* the wire-level measurement *)
  let tap = Harness.Syn_tap.install topo.Topology.client in
  (match variant with
  | Kernel -> Path_manager.auto_install (Path_manager.ndiffports ~n:2) client_ep
  | Userspace ->
      let setup = Setup.attach client_ep in
      Channel.set_stress_factor setup.Setup.channel stress;
      ignore (Smapp_controllers.Ndiffports.start setup.Setup.pm ~n:2));
  Smapp_apps.Http.server server_ep ~port:80 ~response_bytes:file_bytes;
  let finished = ref None in
  let _stats =
    Smapp_apps.Http.client client_ep ~src:client_addr
      ~dst:(Ip.endpoint server_addr 80) ~response_bytes:file_bytes ~requests
      ~on_done:(fun stats -> finished := Some stats)
      ()
  in
  (* 1000 transfers of 512 KB at ~1 Gbps: well under 60 simulated seconds *)
  Harness.run_seconds engine 120.0;
  let completed =
    match !finished with Some s -> s.Smapp_apps.Http.completed | None -> 0
  in
  { variant; stress; delays = Harness.Syn_tap.join_delays tap; requests_completed = completed }

(* One job per (variant, stress, requests) triple: the kernel / userspace /
   stressed runs the figure compares are independent simulations, so they
   sweep like seeds do. *)
let sweep ?pool specs =
  Smapp_par.Sweep.map ?pool
    (fun (variant, stress, requests) -> run ~requests ~stress ~variant ())
    specs

(* --- traced decomposition of the kernel-vs-userspace gap --------------------

   The userspace controller itself runs in zero simulated time, so its extra
   reaction latency is boundary crossings: the event climbing kernel->user
   plus the command descending user->kernel — minus the in-kernel
   path-manager work ([Path_manager.creation_delay]) that the command path
   replaces, since [Create_subflow] executes synchronously on arrival.
   Tracing one userspace run measures each crossing; up + down - kernel
   should reproduce the independently measured CAPA->JOIN gap. *)

type breakdown = {
  b_extra_us : float;
  b_up_us : float;
  b_down_us : float;
  b_kernel_pm_us : float;
  b_decision_rtt_us : float option;
  b_requests : int;
}

let breakdown_model_us b = b.b_up_us +. b.b_down_us -. b.b_kernel_pm_us

let mean_of = function
  | [] -> 0.0
  | l -> List.fold_left ( +. ) 0.0 l /. float_of_int (List.length l)

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let traced_breakdown ?(seed = 42) ?(requests = 300) () =
  let kernel = run ~seed ~requests ~variant:Kernel () in
  let user =
    Smapp_obs.Scope.recording (fun () -> run ~seed ~requests ~variant:Userspace ())
  in
  (* the trace buffer keeps the userspace run for the caller to export *)
  let extra_us = (mean_of user.delays -. mean_of kernel.delays) *. 1e6 in
  let crossing name =
    Option.value ~default:0.0 (Smapp_obs.Trace.mean_duration_us ~cat:"netlink" ~name)
  in
  let decision =
    let rows =
      List.filter
        (fun (key, _) -> starts_with ~prefix:"controller:decision:" key)
        (Smapp_obs.Trace.span_summary ())
    in
    match rows with
    | [] -> None
    | _ ->
        let total, n =
          List.fold_left
            (fun (total, n) (_, s) ->
              ( total +. (s.Smapp_stats.Summary.mean *. float_of_int s.Smapp_stats.Summary.count),
                n + s.Smapp_stats.Summary.count ))
            (0.0, 0) rows
        in
        Some (total /. float_of_int n)
  in
  {
    b_extra_us = extra_us;
    b_up_us = crossing "k->u";
    b_down_us = crossing "u->k";
    b_kernel_pm_us = Time.span_to_float_s Path_manager.creation_delay *. 1e6;
    b_decision_rtt_us = decision;
    b_requests = requests;
  }
