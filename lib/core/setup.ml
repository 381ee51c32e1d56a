open Smapp_mptcp
module Channel = Smapp_netlink.Channel

type t = {
  kernel_pm : Kernel_pm.t;
  pm : Pm_lib.t;
  channel : Channel.t;
}

let attach ?profile endpoint =
  let engine = Endpoint.engine endpoint in
  let channel = Channel.create engine () in
  (match profile with
  | Some p -> Channel.set_fault_profile channel p
  | None -> ());
  let kernel_pm = Kernel_pm.attach endpoint channel in
  let pm = Pm_lib.create engine channel in
  { kernel_pm; pm; channel }
