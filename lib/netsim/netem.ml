open Smapp_sim

let loss_at engine time cable p =
  ignore (Engine.at engine time (fun () -> Topology.set_duplex_loss cable p))

let down_at engine time cable =
  ignore (Engine.at engine time (fun () -> Topology.set_duplex_up cable false))

let flap_nic_every engine nic ~first_down ~down_for ~period ?count () =
  let rec cycle k at_time =
    let proceed = match count with Some n -> k < n | None -> true in
    if proceed then
      ignore
        (Engine.at engine at_time (fun () ->
             Host.set_nic_up nic false;
             ignore
               (Engine.after engine down_for (fun () -> Host.set_nic_up nic true));
             cycle (k + 1) (Time.add at_time period)))
  in
  cycle 0 first_down

let flap_nic engine nic ~down_at:d ~up_at:u =
  flap_nic_every engine nic ~first_down:d ~down_for:(Time.diff u d)
    ~period:Time.span_zero ~count:1 ()
