(* A reassembly set whose stream offset equals its sequence offset: its
   merge rule (contiguous in both spaces) is then plain adjacency, so the
   ranges are disjoint, non-adjacent and sorted. *)
type t = Smapp_tcp.Reasm.t

module Reasm = Smapp_tcp.Reasm

let create = Reasm.create
let add t lo hi = if hi > lo then Reasm.insert t ~seq:lo ~len:(hi - lo) ~dsn:lo [@@smapp.hot]
let range_end t i = Reasm.range_start t i + Reasm.range_len t i

let mem t x =
  let found = ref false in
  for i = 0 to Reasm.count t - 1 do
    if Reasm.range_start t i <= x && x < range_end t i then found := true
  done;
  !found

let covered t lo hi =
  let found = ref (hi <= lo) in
  for i = 0 to Reasm.count t - 1 do
    if Reasm.range_start t i <= lo && hi <= range_end t i then found := true
  done;
  !found
[@@smapp.hot]

let contiguous_from t x =
  let x = ref x in
  for i = 0 to Reasm.count t - 1 do
    if Reasm.range_start t i <= !x && !x < range_end t i then x := range_end t i
  done;
  !x
[@@smapp.hot]

(* Each range's hole before it, clipped to [hi]; past the last range,
   the rest of [\[lo, hi)]. *)
let iter_holes t lo hi f x =
  let lo = ref lo and i = ref 0 in
  while !lo < hi do
    let last = !i = Reasm.count t in
    let rlo = if last then hi else Reasm.range_start t !i in
    if rlo > !lo then f x !lo (if rlo < hi then rlo else hi);
    if last then lo := hi else if range_end t !i > !lo then lo := range_end t !i;
    incr i
  done

let total = Reasm.buffered_bytes
