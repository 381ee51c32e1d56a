type t = {
  count : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
}

let of_array samples =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Summary.of_array: empty";
  let sum = Array.fold_left ( +. ) 0.0 samples in
  let mean = sum /. float_of_int n in
  let sq_dev = Array.fold_left (fun acc x -> acc +. ((x -. mean) ** 2.0)) 0.0 samples in
  let stddev = if n < 2 then 0.0 else sqrt (sq_dev /. float_of_int (n - 1)) in
  let min = Array.fold_left Float.min samples.(0) samples in
  let max = Array.fold_left Float.max samples.(0) samples in
  { count = n; mean; stddev; min; max }

let of_samples samples =
  if samples = [] then invalid_arg "Summary.of_samples: empty";
  of_array (Array.of_list samples)

let percentile samples p =
  let n = Array.length samples in
  if n = 0 then invalid_arg "Summary.percentile: empty";
  if p < 0.0 || p > 100.0 then invalid_arg "Summary.percentile: p out of range";
  let sorted = Array.copy samples in
  Array.sort Float.compare sorted;
  let rank = p /. 100.0 *. float_of_int (n - 1) in
  let lo = int_of_float (Float.floor rank) in
  let hi = int_of_float (Float.ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))
  end
