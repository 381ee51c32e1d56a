open Smapp_sim
module Obs = Smapp_obs

type handle = { mutable on : bool }

let stop h = h.on <- false

let m_handovers =
  Obs.Metrics.counter ~help:"NIC handovers executed by Linkmodel.Mobility"
    "netsim_handovers_total"

let m_fades =
  Obs.Metrics.counter ~help:"Gilbert-Elliott Good->Bad transitions"
    "netsim_ge_fades_total"

(* --- piecewise-constant traces --------------------------------------------- *)

type segment = {
  hold : Time.span;
  seg_rate_bps : float option;
  seg_loss : float option;
}

let segment ?rate_bps ?loss ~hold () = { hold; seg_rate_bps = rate_bps; seg_loss = loss }

let set_duplex_rate cable r =
  Link.set_rate cable.Topology.fwd r;
  Link.set_rate cable.Topology.back r

let set_duplex_delay cable d =
  Link.set_delay cable.Topology.fwd d;
  Link.set_delay cable.Topology.back d

let apply_segment cable seg =
  (match seg.seg_rate_bps with Some r -> set_duplex_rate cable r | None -> ());
  match seg.seg_loss with Some p -> Topology.set_duplex_loss cable p | None -> ()

let play engine ?(start = Time.span_zero) ?(repeat = false) cable segs =
  let h = { on = true } in
  (match segs with
  | [] -> ()
  | _ :: _ ->
      let rec step remaining =
        if h.on then
          match remaining with
          | [] -> if repeat then step segs
          | seg :: rest ->
              apply_segment cable seg;
              ignore (Engine.after engine seg.hold (fun () -> step rest))
      in
      ignore (Engine.after engine start (fun () -> step segs)));
  h

(* --- wireless presets ------------------------------------------------------ *)

(* Both presets are bounded random walks over a discrete rate ladder; the
   walk steps at a fixed period so the whole trajectory is a pure function
   of the engine's split RNG. *)

let wifi engine cable =
  let h = { on = true } in
  let rng = Engine.split_rng engine in
  let ladder = [| 6.5e6; 13.0e6; 19.5e6; 26.0e6; 39.0e6; 52.0e6; 65.0e6 |] in
  let top = Array.length ladder - 1 in
  let idx = ref (top - 1) in
  let fade = ref 0 in
  let apply () =
    if !fade > 0 then begin
      set_duplex_rate cable ladder.(0);
      Topology.set_duplex_loss cable 0.05
    end
    else begin
      set_duplex_rate cable ladder.(!idx);
      Topology.set_duplex_loss cable 0.005
    end
  in
  set_duplex_delay cable (Time.span_ms 2);
  apply ();
  ignore
    (Engine.every engine (Time.span_ms 100) (fun () ->
         if not h.on then `Stop
         else begin
           if !fade > 0 then decr fade
           else if Rng.bernoulli rng 0.05 then begin
             fade := 3;
             Obs.Metrics.incr m_fades
           end
           else begin
             let r = Rng.float rng 1.0 in
             if r < 0.3 then idx := max 0 (!idx - 1)
             else if r < 0.6 then idx := min top (!idx + 1)
           end;
           apply ();
           `Continue
         end));
  h

let lte engine cable =
  let h = { on = true } in
  let rng = Engine.split_rng engine in
  let rates = [| 2.0e6; 5.0e6; 10.0e6; 20.0e6; 40.0e6 |] in
  let top = Array.length rates - 1 in
  let idx = ref 2 in
  let delay_ms = ref 40 in
  let apply () =
    set_duplex_rate cable rates.(!idx);
    set_duplex_delay cable (Time.span_ms !delay_ms);
    Topology.set_duplex_loss cable 0.001
  in
  apply ();
  ignore
    (Engine.every engine (Time.span_ms 200) (fun () ->
         if not h.on then `Stop
         else begin
           let r = Rng.float rng 1.0 in
           if r < 0.25 then idx := max 0 (!idx - 1)
           else if r < 0.5 then idx := min top (!idx + 1);
           let d = Rng.float rng 1.0 in
           if d < 0.3 then delay_ms := max 30 (!delay_ms - 5)
           else if d < 0.6 then delay_ms := min 80 (!delay_ms + 5);
           apply ();
           `Continue
         end));
  h

(* --- Gilbert-Elliott burst loss -------------------------------------------- *)

type gilbert_elliott = {
  p_good_to_bad : float;
  p_bad_to_good : float;
  good_loss : float;
  bad_loss : float;
  ge_step : Time.span;
}

let default_ge =
  {
    p_good_to_bad = 0.05;
    p_bad_to_good = 0.30;
    good_loss = 0.001;
    bad_loss = 0.40;
    ge_step = Time.span_ms 100;
  }

let burst_loss engine cables ge =
  let h = { on = true } in
  let rng = Engine.split_rng engine in
  let state = ref `Good in
  let apply () =
    let p = match !state with `Good -> ge.good_loss | `Bad -> ge.bad_loss in
    List.iter (fun c -> Topology.set_duplex_loss c p) cables
  in
  apply ();
  ignore
    (Engine.every engine ge.ge_step (fun () ->
         if not h.on then `Stop
         else begin
           (match !state with
           | `Good ->
               if Rng.bernoulli rng ge.p_good_to_bad then begin
                 state := `Bad;
                 Obs.Metrics.incr m_fades
               end
           | `Bad -> if Rng.bernoulli rng ge.p_bad_to_good then state := `Good);
           apply ();
           `Continue
         end));
  h

(* --- mobility -------------------------------------------------------------- *)

module Mobility = struct
  type schedule = {
    first_handover : Time.span;
    ho_period : Time.span;
    break_for : Time.span;
    max_handovers : int option;
  }

  type t = { mutable count : int }

  let start engine ~nics sched =
    (match nics with
    | _ :: _ :: _ -> ()
    | _ -> invalid_arg "Linkmodel.Mobility.start: need at least two NICs");
    let nics = Array.of_list nics in
    let n = Array.length nics in
    let t = { count = 0 } in
    (* Make the starting state explicit: only the head NIC is attached. *)
    Array.iteri (fun i nic -> if i > 0 then Host.set_nic_up nic false) nics;
    Host.set_nic_up nics.(0) true;
    let rec handover k at_time =
      let allowed =
        match sched.max_handovers with Some m -> k < m | None -> true
      in
      if allowed then
        ignore
          (Engine.at engine at_time (fun () ->
               let from_nic = nics.(k mod n) and to_nic = nics.((k + 1) mod n) in
               t.count <- t.count + 1;
               Obs.Metrics.incr m_handovers;
               Obs.Trace.instant ~cat:"netsim"
                 ~args:
                   [ ("from", Host.nic_name from_nic); ("to", Host.nic_name to_nic) ]
                 "handover";
               Host.set_nic_up from_nic false;
               ignore
                 (Engine.after engine sched.break_for (fun () -> Host.set_nic_up to_nic true));
               handover (k + 1) (Time.add at_time sched.ho_period)))
    in
    handover 0 (Time.add (Engine.now engine) sched.first_handover);
    t

  let handovers t = t.count
end
