type t = int

let v4 a b c d =
  let byte name x =
    if x < 0 || x > 255 then invalid_arg (Printf.sprintf "Ip.v4: %s out of range" name);
    x
  in
  (byte "a" a lsl 24) lor (byte "b" b lsl 16) lor (byte "c" c lsl 8) lor byte "d" d

let of_string s =
  match String.split_on_char '.' s with
  | [ a; b; c; d ] -> (
      match (int_of_string_opt a, int_of_string_opt b, int_of_string_opt c, int_of_string_opt d) with
      | Some a, Some b, Some c, Some d -> v4 a b c d
      | _ -> invalid_arg ("Ip.of_string: " ^ s))
  | _ -> invalid_arg ("Ip.of_string: " ^ s)

let to_string t =
  Printf.sprintf "%d.%d.%d.%d" ((t lsr 24) land 0xff) ((t lsr 16) land 0xff)
    ((t lsr 8) land 0xff) (t land 0xff)

let to_int t = t
let of_int v = v land 0xFFFFFFFF
let compare = Int.compare
let equal = Int.equal
let pp ppf t = Format.pp_print_string ppf (to_string t)

type endpoint = { addr : t; port : int }

let endpoint addr port = { addr; port }

let compare_endpoint a b =
  let c = compare a.addr b.addr in
  if c <> 0 then c else Int.compare a.port b.port

let equal_endpoint a b = a.addr = b.addr && a.port = b.port
let pp_endpoint ppf e = Format.fprintf ppf "%a:%d" pp e.addr e.port

type flow = { src : endpoint; dst : endpoint }

let flow ~src ~dst = { src; dst }
let reverse f = { src = f.dst; dst = f.src }

let equal_flow a b = equal_endpoint a.src b.src && equal_endpoint a.dst b.dst
let pp_flow ppf f = Format.fprintf ppf "%a -> %a" pp_endpoint f.src pp_endpoint f.dst

(* SplitMix64 finalizer, inlined so that [flow_hash] keeps every int64
   unboxed. *)
let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* [mix]-chained over the canonically ordered endpoints, picked without
   building a pair. *)
let flow_hash ~salt f =
  let ordered = compare_endpoint f.src f.dst <= 0 in
  let lo = if ordered then f.src else f.dst and hi = if ordered then f.dst else f.src in
  let acc = Int64.of_int salt in
  let acc = mix (Int64.add acc (Int64.of_int lo.addr)) in
  let acc = mix (Int64.add acc (Int64.of_int lo.port)) in
  let acc = mix (Int64.add acc (Int64.of_int hi.addr)) in
  let acc = mix (Int64.add acc (Int64.of_int hi.port)) in
  Int64.to_int (Int64.shift_right_logical acc 2)

module Addr_map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)
