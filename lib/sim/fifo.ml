(* An array used as a ring: [len] cells from [head]. *)
type 'a t = { fill : 'a; mutable cells : 'a array; mutable head : int; mutable len : int }

let create fill = { fill; cells = [||]; head = 0; len = 0 }
let length q = q.len

let cell q i =
  let k = q.head + i and n = Array.length q.cells in
  if k < n then k else k - n

(* Cold: a full queue's values in twice the room (at least 4), from the first cell. *)
let grow q =
  let cells = Array.make (max 4 (2 * q.len)) q.fill in
  for i = 0 to q.len - 1 do
    cells.(i) <- q.cells.(cell q i)
  done;
  q.cells <- cells;
  q.head <- 0

let push q x =
  if q.len = Array.length q.cells then grow q;
  q.cells.(cell q q.len) <- x;
  q.len <- q.len + 1
[@@smapp.hot]

let pop q =
  let x = q.cells.(q.head) in
  q.cells.(q.head) <- q.fill;
  q.head <- cell q 1;
  q.len <- q.len - 1;
  x
[@@smapp.hot]
