type t = int

let modulus = 1 lsl 32
let mask = modulus - 1
let zero = 0
let of_int x = x land mask
let to_int t = t
let add t n = (t + n) land mask

let diff a b =
  let d = (a - b) land mask in
  if d >= modulus / 2 then d - modulus else d

let lt a b = diff a b < 0
let le a b = diff a b <= 0
let gt a b = diff a b > 0
let ge a b = diff a b >= 0

(* Wraparound-aware: orders by signed modular distance, so a value just past
   the 2^32 boundary still compares greater than one just before it —
   [Stdlib.compare] on the raw ints would invert that. *)
let compare a b = Int.compare (diff a b) 0
let min a b = if le a b then a else b
let max a b = if ge a b then a else b
