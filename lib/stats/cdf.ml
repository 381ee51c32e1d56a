type t = { sorted : float array }

let of_samples samples =
  if samples = [] then invalid_arg "Cdf.of_samples: empty";
  let sorted = Array.of_list samples in
  Array.sort Float.compare sorted;
  { sorted }

(* Index of the first element > x, by binary search. *)
let upper_bound a x =
  let rec search lo hi =
    if lo >= hi then lo
    else begin
      let mid = (lo + hi) / 2 in
      if a.(mid) <= x then search (mid + 1) hi else search lo mid
    end
  in
  search 0 (Array.length a)

let eval t x = float_of_int (upper_bound t.sorted x) /. float_of_int (Array.length t.sorted)

let quantile t q =
  if q <= 0.0 || q > 1.0 then invalid_arg "Cdf.quantile: q out of (0,1]";
  let n = Array.length t.sorted in
  let k = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
  t.sorted.(max 0 (min (n - 1) k))

let min_value t = t.sorted.(0)
let max_value t = t.sorted.(Array.length t.sorted - 1)

let points t =
  let n = Array.length t.sorted in
  let rec collect i acc =
    if i < 0 then acc
    else begin
      let x = t.sorted.(i) in
      match acc with
      | (x', _) :: _ when x = x' -> collect (i - 1) acc
      | _ -> collect (i - 1) ((x, float_of_int (upper_bound t.sorted x) /. float_of_int n) :: acc)
    end
  in
  collect (n - 1) []
