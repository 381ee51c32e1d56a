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

let ranges t = List.init (Reasm.count t) (fun i -> (Reasm.range_start t i, range_end t i))

let subtract t lo hi =
  let rec go lo acc = function
    | _ when lo >= hi -> List.rev acc
    | [] -> List.rev ((lo, hi) :: acc)
    | (rlo, rhi) :: rest ->
        if rhi <= lo then go lo acc rest
        else if rlo >= hi then List.rev ((lo, hi) :: acc)
        else begin
          let acc = if rlo > lo then (lo, rlo) :: acc else acc in
          go rhi acc rest
        end
  in
  go lo [] (ranges t)

let total = Reasm.buffered_bytes
