open Smapp_sim

type policy = {
  base : Time.span;
  factor : float;
  max_delay : Time.span;
  max_attempts : int;
  jitter : float;
}

let default =
  {
    base = Time.span_ms 10;
    factor = 2.0;
    max_delay = Time.span_ms 500;
    max_attempts = 8;
    jitter = 0.1;
  }

let command_default = default

let delay_for ?rng policy ~attempt =
  let attempt = max 0 attempt in
  let raw = Time.span_to_float_s policy.base *. (policy.factor ** float_of_int attempt) in
  let capped = Float.min raw (Time.span_to_float_s policy.max_delay) in
  let jittered =
    match rng with
    | Some rng when policy.jitter > 0.0 ->
        capped *. (1.0 -. policy.jitter +. Rng.float rng (2.0 *. policy.jitter))
    | _ -> capped
  in
  Time.span_of_float_s jittered

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
  mutable timer : Engine.timer;
  mutable finished : bool;
}

let stop run =
  run.finished <- true;
  Engine.cancel run.timer

let attempts run = run.attempt

let reset run = if not run.finished then run.attempt <- 0

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

let start engine ?rng policy ~body ~exhausted () =
  let run =
    { engine; rng; policy; body; exhausted; attempt = 0; timer = Engine.timer engine ignore;
      finished = false }
  in
  (* built once the record exists: its callback needs the run *)
  run.timer <- Engine.timer engine (fun () -> arm run);
  arm run;
  run
