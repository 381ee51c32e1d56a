type algo = Reno | Lia
type sibling = { s_cwnd : int; s_srtt : float }

type t = {
  algo : algo;
  mss : int;
  initial_window : int;  (* bytes *)
  mutable cwnd : float;  (* bytes *)
  mutable ssthresh : float;
  mutable siblings : unit -> sibling list;
}

let infinity_window = 1e12

let create ?(algo = Reno) ?(initial_window = 10) ~mss () =
  if mss <= 0 then invalid_arg "Cc.create: mss";
  {
    algo;
    mss;
    initial_window = initial_window * mss;
    cwnd = float_of_int (initial_window * mss);
    ssthresh = infinity_window;
    siblings = (fun () -> []);
  }

let cwnd t = int_of_float t.cwnd
let ssthresh t = int_of_float (Float.min t.ssthresh infinity_window)
let in_slow_start t = t.cwnd < t.ssthresh
let set_sibling_probe t probe = t.siblings <- probe

(* RFC 6356: alpha = cwnd_total * max_i(cwnd_i / rtt_i^2) / (sum_i cwnd_i / rtt_i)^2.
   Windows in bytes, rtt in seconds; alpha ends up scaled like a window. *)
let lia_alpha siblings =
  let usable = List.filter (fun s -> s.s_srtt > 0.0 && s.s_cwnd > 0) siblings in
  match usable with
  | [] | [ _ ] -> None (* single subflow: behave like Reno *)
  | _ ->
      let total = List.fold_left (fun acc s -> acc +. float_of_int s.s_cwnd) 0.0 usable in
      let best =
        List.fold_left
          (fun acc s -> Float.max acc (float_of_int s.s_cwnd /. (s.s_srtt *. s.s_srtt)))
          0.0 usable
      in
      let denom =
        List.fold_left (fun acc s -> acc +. (float_of_int s.s_cwnd /. s.s_srtt)) 0.0 usable
      in
      if denom <= 0.0 then None else Some (total *. best /. (denom *. denom))

let on_ack t ~acked ~srtt =
  let acked = float_of_int (max 0 acked) in
  if t.cwnd < t.ssthresh then
    (* slow start: one MSS per MSS acked *)
    t.cwnd <- t.cwnd +. acked
  else begin
    let mss = float_of_int t.mss in
    let reno_increase = mss *. acked /. t.cwnd in
    (* RFC 6356 §3: on each ack, increase by
       min(alpha * acked * MSS / cwnd_total, acked * MSS / cwnd_i). *)
    let increase =
      match t.algo with
      | Reno -> reno_increase
      | Lia -> (
          let siblings = t.siblings () in
          match lia_alpha siblings with
          | None -> reno_increase
          | Some alpha ->
              let total =
                List.fold_left (fun acc s -> acc +. float_of_int s.s_cwnd) 0.0 siblings
              in
              if total <= 0.0 then reno_increase
              else Float.min (alpha *. acked *. mss /. total) reno_increase)
    in
    ignore srtt;
    t.cwnd <- t.cwnd +. increase
  end

let floor_window t w = Float.max (float_of_int (2 * t.mss)) w

let on_retransmit_loss t ~in_flight =
  let reference = Float.max (float_of_int in_flight) (t.cwnd /. 2.0) in
  ignore reference;
  t.ssthresh <- floor_window t (t.cwnd /. 2.0);
  t.cwnd <- t.ssthresh

let on_rto t =
  t.ssthresh <- floor_window t (t.cwnd /. 2.0);
  t.cwnd <- float_of_int t.mss

let on_idle_restart t ~idle_rtos =
  if idle_rtos > 0 then begin
    let decayed = t.cwnd /. (2.0 ** float_of_int (min idle_rtos 16)) in
    t.cwnd <- Float.max (float_of_int t.initial_window) decayed
  end

let pacing_rate t ~srtt =
  if srtt <= 0.0 then 0.0
  else begin
    let factor = if in_slow_start t then 2.0 else 1.2 in
    factor *. t.cwnd /. srtt
  end
