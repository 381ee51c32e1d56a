(* A fixed discrete-event loop, independent of the simulator: a binary heap
   of timed events over a table of flows, each event allocating a small
   buffer that stays live for a while. Its memory and allocation pattern
   resembles the simulator's, so a host that slows one slows the other by
   about as much, while no change to the simulator changes its work. *)

type event = { at : int; flow : int; seq : int }
type heap = { mutable slots : event array; mutable size : int }

let flows = 20_000
let events = 150_000
let backlog = 8 (* buffers a flow keeps before it drops them *)

let push h e =
  if h.size = Array.length h.slots then begin
    let grown = Array.make (max 16 (2 * h.size)) e in
    Array.blit h.slots 0 grown 0 h.size;
    h.slots <- grown
  end;
  let a = h.slots in
  let i = ref h.size in
  h.size <- h.size + 1;
  while !i > 0 && a.((!i - 1) / 2).at > e.at do
    a.(!i) <- a.((!i - 1) / 2);
    i := (!i - 1) / 2
  done;
  a.(!i) <- e

let pop h =
  let a = h.slots in
  let top = a.(0) in
  h.size <- h.size - 1;
  let last = a.(h.size) in
  let i = ref 0 and sifting = ref true in
  while !sifting do
    let l = (2 * !i) + 1 in
    if l >= h.size then sifting := false
    else begin
      let c = if l + 1 < h.size && a.(l + 1).at < a.(l).at then l + 1 else l in
      if a.(c).at < last.at then begin
        a.(!i) <- a.(c);
        i := c
      end
      else sifting := false
    end
  done;
  a.(!i) <- last;
  top

let work () =
  let h = { slots = [||]; size = 0 } in
  let rng = Random.State.make [| 42 |] in
  let table = Hashtbl.create 1024 in
  for f = 0 to flows - 1 do
    Hashtbl.replace table f (ref []);
    push h { at = Random.State.int rng 1000; flow = f; seq = 0 }
  done;
  let sum = ref 0 in
  for _ = 1 to events do
    let e = pop h in
    let q = Hashtbl.find table e.flow in
    q := (e.seq, Bytes.create 64) :: (if List.length !q > backlog then [] else !q);
    sum := !sum + e.seq;
    push h { at = e.at + 1 + Random.State.int rng 100; flow = e.flow; seq = e.seq + 1 }
  done;
  !sum

let seconds ~domains =
  let t = Clock.now () in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn work) in
  ignore (Sys.opaque_identity (work ()) : int);
  List.iter (fun d -> ignore (Sys.opaque_identity (Domain.join d) : int)) others;
  Clock.now () -. t
