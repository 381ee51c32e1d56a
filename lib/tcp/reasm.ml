(* Sorted, non-overlapping ranges, three ints each — start, len, dsn — in
   one array, so that inserting, popping and reading the set allocate
   nothing once the array has room. It starts empty and grows by doubling;
   the receive window bounds how many ranges can be outstanding. *)
type t = {
  mutable r : int array;  (* range [i] at [3i .. 3i + 2] *)
  mutable count : int;
  mutable buffered : int;  (* sum of the lengths *)
  mutable popped_dsn : int;  (* stream offset of the last popped bytes *)
}

let create () = { r = [||]; count = 0; buffered = 0; popped_dsn = 0 }
let start t i = t.r.(3 * i)
let len t i = t.r.((3 * i) + 1)
let dsn t i = t.r.((3 * i) + 2)

let set t i ~start ~len ~dsn =
  t.r.(3 * i) <- start;
  t.r.((3 * i) + 1) <- len;
  t.r.((3 * i) + 2) <- dsn

let grow t =
  let r = Array.make (3 * max 4 (2 * t.count)) 0 in
  Array.blit t.r 0 r 0 (3 * t.count);
  t.r <- r

let insert_at t i ~start ~len ~dsn =
  if 3 * t.count = Array.length t.r then grow t;
  Array.blit t.r (3 * i) t.r (3 * (i + 1)) (3 * (t.count - i));
  set t i ~start ~len ~dsn;
  t.count <- t.count + 1;
  t.buffered <- t.buffered + len
[@@smapp.hot]

(* Merge neighbours that are contiguous in both sequence and stream space,
   from the pair ending at index [from] on; without this, high-bandwidth
   out-of-order arrival makes the set (and each insertion) grow without
   bound. Ranges before [from - 1] are already merged, and the set is not
   empty. *)
let coalesce t from =
  let w = ref (max 0 (from - 1)) in
  for k = !w + 1 to t.count - 1 do
    let wl = len t !w in
    if start t !w + wl = start t k && dsn t !w + wl = dsn t k then
      t.r.((3 * !w) + 1) <- wl + len t k
    else begin
      incr w;
      set t !w ~start:(start t k) ~len:(len t k) ~dsn:(dsn t k)
    end
  done;
  t.count <- !w + 1
[@@smapp.hot]

let insert t ~seq ~len:n ~dsn:d =
  if n <= 0 then invalid_arg "Reasm.insert: len must be positive";
  (* Walk the sorted ranges, trimming the new range against each one it
     overlaps and inserting the surviving pieces into the gaps. *)
  let lo = ref seq and n = ref n and d = ref d in
  let i = ref 0 and first = ref (-1) in
  while !n > 0 do
    if !i >= t.count || !lo + !n <= start t !i then begin
      insert_at t !i ~start:!lo ~len:!n ~dsn:!d;
      if !first < 0 then first := !i;
      n := 0
    end
    else begin
      let rs = start t !i and rl = len t !i in
      if rs + rl > !lo then begin
        (* overlap: keep the non-overlapping prefix, then continue after
           the range with whatever sticks out *)
        if rs > !lo then begin
          insert_at t !i ~start:!lo ~len:(rs - !lo) ~dsn:!d;
          if !first < 0 then first := !i;
          incr i
        end;
        let tail = rs + rl in
        d := !d + (tail - !lo);
        n := !lo + !n - tail;
        lo := tail
      end;
      incr i
    end
  done;
  if !first >= 0 then coalesce t !first
[@@smapp.hot]

let pop_ready t ~rcv_nxt =
  if t.count = 0 || start t 0 > rcv_nxt then 0
  else begin
    let s = start t 0 and n = len t 0 and d = dsn t 0 in
    t.count <- t.count - 1;
    Array.blit t.r 3 t.r 0 (3 * t.count);
    t.buffered <- t.buffered - n;
    (* ranges never start before rcv_nxt unless stale: a stale head is
       dropped, and what is left of it pops *)
    let skip = rcv_nxt - s in
    if skip >= n then 0
    else begin
      t.popped_dsn <- d + skip;
      n - skip
    end
  end
[@@smapp.hot]

let popped_dsn t = t.popped_dsn
let buffered_bytes t = t.buffered
let count t = t.count
let range_start = start
let range_len = len
