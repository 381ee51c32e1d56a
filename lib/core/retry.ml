open Smapp_sim

type policy = {
  base : Time.span;
  factor : float;
  max_delay : Time.span;
  max_attempts : int;
  jitter : float;
}

let command_default =
  {
    base = Time.span_ms 10;
    factor = 2.0;
    max_delay = Time.span_ms 500;
    max_attempts = 8;
    jitter = 0.1;
  }

(* [Time]'s conversions and [Rng.float] written out: no float crosses a call *)
let delay_for ?rng policy ~attempt =
  let attempt = max 0 attempt in
  let base = float_of_int (Time.span_to_ns policy.base) /. 1e9 in
  let raw = base *. (policy.factor ** float_of_int attempt) in
  let cap = float_of_int (Time.span_to_ns policy.max_delay) /. 1e9 in
  let capped = if raw <= cap then raw else cap in
  let jittered =
    match rng with
    | Some rng when policy.jitter > 0.0 ->
        let u = float_of_int (Rng.bits53 rng) *. 0x1p-53 in
        capped *. (1.0 -. policy.jitter +. (u *. (2.0 *. policy.jitter)))
    | _ -> capped
  in
  Time.span_ns (int_of_float (Float.round (jittered *. 1e9)))

let total_delay policy =
  let rec go attempt acc =
    if attempt >= policy.max_attempts then acc
    else go (attempt + 1) (Time.span_add acc (delay_for policy ~attempt))
  in
  go 0 Time.span_zero

type run = {
  engine : Engine.t;
  rng : Rng.t option;
  policy : policy;
  body : attempt:int -> unit;
  exhausted : unit -> unit;
  mutable attempt : int;
  timer : Engine.timer;
  mutable finished : bool;
}

let stop run =
  run.finished <- true;
  Engine.cancel run.timer

let arm run =
  if not run.finished then
    if run.attempt >= run.policy.max_attempts then begin
      run.finished <- true;
      run.exhausted ()
    end
    else begin
      let attempt = run.attempt in
      run.attempt <- attempt + 1;
      run.body ~attempt;
      if not run.finished then
        Engine.set run.timer
          (Time.add (Engine.now run.engine) (delay_for ?rng:run.rng run.policy ~attempt))
    end

let restart run =
  run.attempt <- 0;
  run.finished <- false;
  arm run

let start engine ?rng policy ~body ~exhausted () =
  let run =
    { engine; rng; policy; body; exhausted; attempt = 0; timer = Engine.timer engine ignore;
      finished = false }
  in
  (* bound once the record exists: its callback needs the run *)
  Engine.set_callback run.timer (fun () -> arm run);
  arm run;
  run
