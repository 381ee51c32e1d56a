type algo = Reno | Lia

(* All-float, so OCaml stores the two fields flat and updating them boxes
   nothing. *)
type window = { mutable cwnd : float; (* bytes *) mutable ssthresh : float }

type t = {
  algo : algo;
  mss : int;
  initial_window : int;  (* bytes *)
  w : window;
  (* what a sibling's LIA update reads of this subflow *)
  mutable established : bool;
  mutable srtt_ns : int;  (* -1 before the first sample *)
  mutable group : group option;
}

(* The subflows of one connection, in the connection's order. *)
and group = { mutable members : t array; mutable count : int }

let infinity_window = 1e12

let create ?(algo = Reno) ?(initial_window = 10) ~mss () =
  if mss <= 0 then invalid_arg "Cc.create: mss";
  {
    algo;
    mss;
    initial_window = initial_window * mss;
    w = { cwnd = float_of_int (initial_window * mss); ssthresh = infinity_window };
    established = false;
    srtt_ns = -1;
    group = None;
  }

let cwnd t = int_of_float t.w.cwnd
let ssthresh t = int_of_float (Float.min t.w.ssthresh infinity_window)
let in_slow_start t = t.w.cwnd < t.w.ssthresh
let set_established t b = t.established <- b
let set_srtt_ns t ns = t.srtt_ns <- ns

let group () = { members = [||]; count = 0 }

let join g t =
  if g.count = Array.length g.members then begin
    let members = Array.make (max 4 (2 * g.count)) t in
    Array.blit g.members 0 members 0 g.count;
    g.members <- members
  end;
  g.members.(g.count) <- t;
  g.count <- g.count + 1;
  t.group <- Some g

let leave g t =
  let i = ref 0 in
  while !i < g.count && g.members.(!i) != t do
    incr i
  done;
  if !i < g.count then begin
    Array.blit g.members (!i + 1) g.members !i (g.count - !i - 1);
    g.count <- g.count - 1
  end;
  t.group <- None

(* RFC 6356 §3 over the group, in one pass with local accumulators: a
   float passed to or returned from a call would be boxed, so the whole
   update lives here. Over the [usable] siblings (an RTT sample and a
   window),
     alpha = total_u * max_i(w_i / rtt_i^2) / (sum_i w_i / rtt_i)^2,
   and the window grows by min(alpha * acked * MSS / total, Reno's
   acked * MSS / cwnd), where [total] sums every established sibling.
   Windows are the truncated {!cwnd} in bytes, rtts in seconds. Fewer
   than two usable siblings: Reno. *)
let lia_grow t g ~acked =
  let acked = float_of_int (max 0 acked) in
  let mss = float_of_int t.mss in
  let reno_increase = mss *. acked /. t.w.cwnd in
  let usable = ref 0 in
  let total_u = ref 0.0 and best = ref 0.0 and denom = ref 0.0 and total = ref 0.0 in
  for i = 0 to g.count - 1 do
    let s = g.members.(i) in
    if s.established then begin
      let w = float_of_int (int_of_float s.w.cwnd) in
      total := !total +. w;
      if s.srtt_ns > 0 && int_of_float s.w.cwnd > 0 then begin
        let rtt = float_of_int s.srtt_ns /. 1e9 in
        incr usable;
        total_u := !total_u +. w;
        best := Float.max !best (w /. (rtt *. rtt));
        denom := !denom +. (w /. rtt)
      end
    end
  done;
  let increase =
    if !usable < 2 || !denom <= 0.0 || !total <= 0.0 then reno_increase
    else
      let alpha = !total_u *. !best /. (!denom *. !denom) in
      Float.min (alpha *. acked *. mss /. !total) reno_increase
  in
  t.w.cwnd <- t.w.cwnd +. increase
[@@smapp.hot]

let on_ack t ~acked =
  if t.w.cwnd < t.w.ssthresh then
    (* slow start: one MSS per MSS acked *)
    t.w.cwnd <- t.w.cwnd +. float_of_int (max 0 acked)
  else
    match (t.algo, t.group) with
    | Lia, Some g -> lia_grow t g ~acked
    | (Reno | Lia), _ ->
        t.w.cwnd <- t.w.cwnd +. (float_of_int t.mss *. float_of_int (max 0 acked) /. t.w.cwnd)
[@@smapp.hot]

(* Inlined, and no [Float.max]: a float crossing a call is boxed. *)
let floor_window t w =
  let floor = float_of_int (2 * t.mss) in
  if w < floor then floor else w
[@@inline]

let on_retransmit_loss t =
  t.w.ssthresh <- floor_window t (t.w.cwnd /. 2.0);
  t.w.cwnd <- t.w.ssthresh

let on_rto t =
  t.w.ssthresh <- floor_window t (t.w.cwnd /. 2.0);
  t.w.cwnd <- float_of_int t.mss

let on_idle_restart t ~idle_rtos =
  if idle_rtos > 0 then begin
    let decayed = t.w.cwnd /. (2.0 ** float_of_int (min idle_rtos 16)) in
    t.w.cwnd <- Float.max (float_of_int t.initial_window) decayed
  end

let pacing_rate t ~srtt =
  if srtt <= 0.0 then 0.0
  else begin
    let factor = if in_slow_start t then 2.0 else 1.2 in
    factor *. t.w.cwnd /. srtt
  end
