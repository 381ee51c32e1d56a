(* Cell 0 holds the buffer index of the first element, cell 1 the
   element count; the buffer is every cell from 2. The zero-length array
   is the empty ring of no capacity. *)
type t = int array

let empty () : t = [||]
let length r = if Array.length r = 0 then 0 else r.(1)

(* The array index of the element [i] places from the front. *)
let cell r i =
  let k = r.(0) + i and cap = Array.length r - 2 in
  2 + if k >= cap then k - cap else k

let get r i = r.(cell r i)
let set r i v = r.(cell r i) <- v

(* Cold: a full ring's copy with twice its room (at least 4), its
   elements from the first buffer cell. *)
let grow r =
  let n = length r in
  let g = Array.make (2 + max 4 (2 * n)) 0 in
  for i = 0 to n - 1 do
    g.(2 + i) <- get r i
  done;
  g.(1) <- n;
  g

let push r x =
  let r = if Array.length r = 0 || r.(1) = Array.length r - 2 then grow r else r in
  let n = r.(1) in
  r.(cell r n) <- x;
  r.(1) <- n + 1;
  r
[@@smapp.hot]

let pop r =
  let h = r.(0) + 1 in
  r.(0) <- (if h = Array.length r - 2 then 0 else h);
  r.(1) <- r.(1) - 1
[@@smapp.hot]
