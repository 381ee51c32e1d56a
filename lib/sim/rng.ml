(* The SplitMix64 state lives in an 8-byte buffer rather than a mutable
   [int64] field: a field write would box the new state on every draw,
   while [Bytes.get/set_int64_ne] load and store it unboxed. With [int64],
   [mix64] and [unit_float] inlined into their callers, a draw allocates
   nothing. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let[@inline] int64 t =
  let state = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 state;
  mix64 state

let split t =
  let seed = int64 t in
  create (mix64 seed)

let bits30 t = Int64.to_int (Int64.shift_right_logical (int64 t) 34)

let int t bound =
  assert (bound > 0);
  if bound <= 1 lsl 30 then bits30 t mod bound
  else Int64.to_int (Int64.rem (Int64.shift_right_logical (int64 t) 1) (Int64.of_int bound))

let[@inline] bits53 t = Int64.to_int (Int64.shift_right_logical (int64 t) 11)

(* 53 uniform bits -> [0,1) *)
let[@inline] unit_float t = float_of_int (bits53 t) *. 0x1p-53

let float t bound = unit_float t *. bound
let bernoulli t p = unit_float t < p

let exponential t mean =
  let u = unit_float t in
  (* 1 - u is in (0,1], avoiding log 0 *)
  -.mean *. log (1.0 -. u)

let uniform_span t s =
  let ns = Time.span_to_ns s in
  if ns <= 0 then Time.span_zero else Time.span_ns (int t ns)
