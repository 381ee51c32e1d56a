type t = int
type span = int

let zero = 0
let of_ns ns = ns
let to_ns t = t

let span_ns ns = ns
let span_us us = us * 1_000
let span_ms ms = ms * 1_000_000
let span_s s = s * 1_000_000_000

let span_of_float_s s = int_of_float (Float.round (s *. 1e9))

(* A float argument crosses a module boundary boxed, and dune's dev
   profile compiles with [-opaque], so no [\[@inline\]] removes that box
   from a per-packet caller of [span_of_float_s]. *)
let span_of_bits bits ~rate_bps =
  int_of_float (Float.round (float_of_int bits /. rate_bps *. 1e9))

let span_to_ns s = s
let span_to_float_s s = float_of_int s /. 1e9

let add t s = t + s
let diff a b = a - b

let span_add = ( + )
let span_sub = ( - )
let span_scale k s = k * s
let span_divide s k = s / k
let span_double s = 2 * s
let span_zero = 0
let span_max = Stdlib.max
let span_min = Stdlib.min

let compare_span = Int.compare
let equal = Int.equal
let ( < ) (a : int) b = Stdlib.( < ) a b
let ( > ) (a : int) b = Stdlib.( > ) a b
let ( >= ) (a : int) b = Stdlib.( >= ) a b

let to_float_s t = float_of_int t /. 1e9

let pp ppf t = Format.fprintf ppf "%.6fs" (to_float_s t)
let pp_span ppf s = Format.fprintf ppf "%.6fs" (span_to_float_s s)
