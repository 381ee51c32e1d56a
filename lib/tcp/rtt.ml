open Smapp_sim

let min_rto = Time.span_ms 200
let max_rto = Time.span_s 120
let initial_rto = Time.span_s 1

(* [srtt_v] is meaningless until [has_srtt]: the option the public [srtt]
   accessor presents is flattened into these two fields so the per-ack
   paths ([sample], [rto], [srtt_value]) never box a [Some]. *)
type t = {
  mutable has_srtt : bool;
  mutable srtt_v : Time.span;
  mutable rttvar : Time.span;
}

let create () = { has_srtt = false; srtt_v = Time.span_zero; rttvar = Time.span_zero }

let sample t r =
  let r = Time.span_max r (Time.span_ns 1) in
  if not t.has_srtt then begin
    t.has_srtt <- true;
    t.srtt_v <- r;
    t.rttvar <- Time.span_divide r 2
  end
  else begin
    let srtt = t.srtt_v in
    let err = Time.span_sub srtt r in
    let abs_err =
      if Time.compare_span err Time.span_zero < 0 then Time.span_sub Time.span_zero err
      else err
    in
    (* rttvar = 3/4 rttvar + 1/4 |err| ; srtt = 7/8 srtt + 1/8 r *)
    t.rttvar <-
      Time.span_add
        (Time.span_divide (Time.span_scale 3 t.rttvar) 4)
        (Time.span_divide abs_err 4);
    t.srtt_v <-
      Time.span_add (Time.span_divide (Time.span_scale 7 srtt) 8) (Time.span_divide r 8)
  end
[@@smapp.hot]

let has_srtt t = t.has_srtt
let srtt_value t = t.srtt_v
let srtt t = if t.has_srtt then Some t.srtt_v else None

let clamp rto = Time.span_min max_rto (Time.span_max min_rto rto)

let rto t =
  if not t.has_srtt then initial_rto
  else
    let granularity = Time.span_ms 1 in
    clamp (Time.span_add t.srtt_v (Time.span_max granularity (Time.span_scale 4 t.rttvar)))
[@@smapp.hot]

let rec backoff base n =
  if n <= 0 || Time.compare_span base max_rto >= 0 then Time.span_min base max_rto
  else backoff (Time.span_double base) (n - 1)
