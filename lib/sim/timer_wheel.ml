(* Hierarchical timer wheel, 32 slots x 8 levels over nanosecond keys.

   Level [k] covers the aligned 32^(k+1)-tick window around [base]: an
   element with key [t] lives at the smallest level whose aligned window
   (relative to [base]) contains it, in slot [(t lsr 5k) land 31]. Within
   the level-0 window every slot holds exactly one key value, so draining
   a slot in insertion order yields the same firing order as a stable
   (key, insertion) heap. Advancing [base] cascades one higher-level slot
   into the levels below it; an element cascades at most once per level.

   Elements more than the wheel horizon (2^40 ns ~ 18 simulated minutes)
   ahead — or behind [base], which can run ahead of the caller's clock by
   up to one window — overflow to a stable binary-heap tier and are served
   from there, ordered against wheel elements by a global insertion
   counter. [reserve] hands out a number from that counter ahead of the
   insert that uses it ([add_reserved]); every order below compares the
   number, never the moment of insertion.

   Entries are intrusive: each slot is a singly-linked chain through the
   entries' own [e_next] field, and popped entries park on a freelist, so
   steady-state add/take allocates no container cell and no entry record.
   The rank triple is flattened into three int fields for the same
   reason. Every loop over levels or chain entries is a top-level
   recursive function taking the wheel as an argument: a local [let rec]
   that captured the wheel would allocate its closure on every call
   (non-flambda ocamlopt). Only the overflow tier allocates: a
   [Heap.peek] option per front search while it holds anything. *)

let slot_bits = 5
let slots = 1 lsl slot_bits (* 32 *)
let slot_mask = slots - 1
let levels = 8 (* horizon: 2^(5*8) ns *)

type 'a entry = {
  mutable e_time : int;
  mutable e_r1 : int;
  mutable e_r2 : int;
  mutable e_r3 : int;
  mutable e_seq : int;
  mutable e_value : 'a;
  mutable e_next : 'a entry; (* slot chain / freelist link; [nil] terminates *)
}

let compare_entry a b =
  let c = Int.compare a.e_time b.e_time in
  if c <> 0 then c
  else
    let c = Int.compare a.e_r1 b.e_r1 in
    if c <> 0 then c
    else
      let c = Int.compare a.e_r2 b.e_r2 in
      if c <> 0 then c
      else
        let c = Int.compare a.e_r3 b.e_r3 in
        if c <> 0 then c else Int.compare a.e_seq b.e_seq

type 'a t = {
  nil : 'a entry; (* self-linked sentinel: end-of-chain and empty-slot marker *)
  dummy : 'a;
  heads : 'a entry array; (* [level * 32 + slot] *)
  tails : 'a entry array;
  masks : int array; (* per-level slot-occupancy bitmask *)
  overflow : 'a entry Heap.t;
  mutable free_list : 'a entry;
  mutable base : int; (* all wheel entries have e_time >= base *)
  mutable next_seq : int; (* global insertion counter, for stable ties *)
  mutable size : int;
}

let create ~dummy =
  let rec nil =
    { e_time = max_int; e_r1 = 0; e_r2 = 0; e_r3 = 0; e_seq = 0; e_value = dummy; e_next = nil }
  in
  {
    nil;
    dummy;
    heads = Array.make (levels * slots) nil;
    tails = Array.make (levels * slots) nil;
    masks = Array.make levels 0;
    overflow = Heap.create ~cmp:compare_entry;
    free_list = nil;
    base = 0;
    next_seq = 0;
    size = 0;
  }

let length t = t.size
let is_empty t = t.size = 0

(* Pool miss: the one cold record allocation; reuses go through the
   freelist with every field overwritten. *)
let take_entry t ~time ~r1 ~r2 ~r3 ~seq value =
  let e = t.free_list in
  if e == t.nil then
    { e_time = time; e_r1 = r1; e_r2 = r2; e_r3 = r3; e_seq = seq; e_value = value;
      e_next = t.nil }
  else begin
    t.free_list <- e.e_next;
    e.e_time <- time;
    e.e_r1 <- r1;
    e.e_r2 <- r2;
    e.e_r3 <- r3;
    e.e_seq <- seq;
    e.e_value <- value;
    e.e_next <- t.nil;
    e
  end

let free_entry t e =
  e.e_value <- t.dummy;
  e.e_next <- t.free_list;
  t.free_list <- e

(* Smallest level [>= k] whose aligned window around [base] contains
   [time]; [levels] when the key is past the horizon. *)
let rec level_from t time k =
  if k >= levels then levels
  else if time lsr (slot_bits * (k + 1)) = t.base lsr (slot_bits * (k + 1)) then k
  else level_from t time (k + 1)
[@@smapp.hot]

let push_slot t j e =
  if t.heads.(j) == t.nil then t.heads.(j) <- e else t.tails.(j).e_next <- e;
  t.tails.(j) <- e

let place t e =
  if e.e_time < t.base then Heap.add t.overflow e
  else
    let k = level_from t e.e_time 0 in
    if k >= levels then Heap.add t.overflow e
    else begin
      let idx = (e.e_time lsr (slot_bits * k)) land slot_mask in
      push_slot t ((k lsl slot_bits) lor idx) e;
      t.masks.(k) <- t.masks.(k) lor (1 lsl idx)
    end

let insert t ~time ~r1 ~r2 ~r3 ~seq value =
  if time < 0 then invalid_arg "Timer_wheel.add: negative time";
  t.size <- t.size + 1;
  place t (take_entry t ~time ~r1 ~r2 ~r3 ~seq value)
[@@smapp.hot]

let reserve t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  seq

let add_ranked t ~time ~r1 ~r2 ~r3 value = insert t ~time ~r1 ~r2 ~r3 ~seq:(reserve t) value
[@@smapp.hot]

let add_reserved t ~time ~seq value = insert t ~time ~r1:0 ~r2:0 ~r3:0 ~seq value
[@@smapp.hot]

let add t ~time value = add_ranked t ~time ~r1:0 ~r2:0 ~r3:0 value
[@@smapp.hot]

let lowest_bit_index m =
  let rec go i v = if v land 1 = 1 then i else go (i + 1) (v lsr 1) in
  go 0 (m land -m)

(* First occupied slot at [level] at or after [base]'s own slot there;
   [-1] when the level is clear ahead. *)
let scan_level t k =
  let idx = (t.base lsr (slot_bits * k)) land slot_mask in
  let m = t.masks.(k) land (-1 lsl idx) in
  if m = 0 then -1 else lowest_bit_index m

(* Detach a whole chain from its slot and re-place every entry one level
   down. *)
let rec place_chain t e =
  if e != t.nil then begin
    let next = e.e_next in
    e.e_next <- t.nil;
    place t e;
    place_chain t next
  end

(* Redistribute one level-[k] slot into the levels below it, advancing
   [base] to the start of that slot's window first. *)
let cascade t k idx =
  let above = slot_bits * (k + 1) in
  t.base <- ((t.base lsr above) lsl above) lor (idx lsl (slot_bits * k));
  let j = (k lsl slot_bits) lor idx in
  let head = t.heads.(j) in
  t.heads.(j) <- t.nil;
  t.tails.(j) <- t.nil;
  t.masks.(k) <- t.masks.(k) land lnot (1 lsl idx);
  place_chain t head
[@@smapp.hot]

(* A level-0 slot holds one key value, but ranked ties must pop in
   (rank, seq) order rather than insertion order, so the head of a slot
   is its [compare_entry]-minimal element (a linear scan; same-instant
   groups are small). *)
let rec min_from best e t =
  if e == t.nil then best
  else min_from (if compare_entry best e <= 0 then best else e) e.e_next t

(* The [compare_entry]-minimal entry of the earliest occupied level-0
   slot, searching from level [k] up and cascading as needed (a cascade
   restarts the search at level 0); [t.nil] when the wheel tier is
   empty. *)
let rec front_from t k =
  if k >= levels then t.nil
  else
    let idx = scan_level t k in
    if idx < 0 then front_from t (k + 1)
    else if k > 0 then begin
      cascade t k idx;
      front_from t 0
    end
    else
      let h = t.heads.(idx) in
      if h == t.nil then
        Bug.fail "Timer_wheel: occupancy bit set on empty level-0 slot %d" idx
      else min_from h h.e_next t
[@@smapp.hot]

(* Overall minimum across the wheel and overflow tiers; [t.nil] when
   empty. Does not remove. *)
let front t =
  let we = front_from t 0 in
  match Heap.peek t.overflow with
  | None -> we
  | Some he -> if we != t.nil && compare_entry we he <= 0 then we else he

(* Unlink [target] from slot [j]'s chain somewhere after [prev]. *)
let rec unlink_after t j target prev =
  let e = prev.e_next in
  if e == t.nil then Bug.fail "Timer_wheel: entry missing from its level-0 slot"
  else if e == target then begin
    prev.e_next <- e.e_next;
    if t.tails.(j) == e then t.tails.(j) <- prev
  end
  else unlink_after t j target e
[@@smapp.hot]

(* Unlink a level-0 entry from its slot chain (identity match), clearing
   the occupancy bit when the slot empties. *)
let slot_remove t target =
  let j = target.e_time land slot_mask in
  let h = t.heads.(j) in
  if h == target then begin
    t.heads.(j) <- h.e_next;
    if t.heads.(j) == t.nil then begin
      t.tails.(j) <- t.nil;
      t.masks.(0) <- t.masks.(0) land lnot (1 lsl j)
    end
  end
  else unlink_after t j target h;
  target.e_next <- t.nil

let next_time t =
  let e = front t in
  if e == t.nil then -1 else e.e_time

let peek t =
  let e = front t in
  if e == t.nil then None else Some (e.e_time, e.e_value)

(* Remove and recycle the front entry, handing back its value; [t.dummy]
   when empty. The engine's hot loop uses this (and [next_time]) so that
   a dispatch round allocates no option or tuple. *)
let take t =
  let e = front t in
  if e == t.nil then t.dummy
  else begin
    (match Heap.peek t.overflow with
    | Some he when he == e -> ignore (Heap.pop t.overflow : 'a entry option)
    | _ -> slot_remove t e);
    t.size <- t.size - 1;
    let v = e.e_value in
    free_entry t e;
    v
  end
[@@smapp.hot]

let pop t =
  let e = front t in
  if e == t.nil then None
  else begin
    let time = e.e_time in
    let v = take t in
    Some (time, v)
  end
