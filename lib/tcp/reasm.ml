(* Sorted, non-overlapping list of ranges. Small lists in practice: the
   receive window bounds how much can be outstanding. *)
type range = { start : int; len : int; dsn : int }

type t = { mutable ranges : range list }

let create () = { ranges = [] }

(* Coalesce neighbours that are contiguous in both sequence and stream
   space; without this, high-bandwidth out-of-order arrival makes the list
   (and each insertion) grow without bound. *)
let rec coalesce = function
  | r1 :: r2 :: rest when r1.start + r1.len = r2.start && r1.dsn + r1.len = r2.dsn ->
      coalesce ({ start = r1.start; len = r1.len + r2.len; dsn = r1.dsn } :: rest)
  | r :: rest -> r :: coalesce rest
  | [] -> []

let insert t ~seq ~len ~dsn =
  if len <= 0 then invalid_arg "Reasm.insert: len must be positive";
  (* Walk the sorted list, trimming the new range against existing ones and
     inserting the surviving pieces. *)
  let rec go ranges start len dsn =
    if len <= 0 then ranges
    else begin
      match ranges with
      | [] -> [ { start; len; dsn } ]
      | r :: rest ->
          if start + len <= r.start then { start; len; dsn } :: ranges
          else if r.start + r.len <= start then r :: go rest start len dsn
          else begin
            (* overlap with r: keep the non-overlapping prefix, then continue
               after r with whatever sticks out *)
            let prefix_len = max 0 (r.start - start) in
            let tail_start = r.start + r.len in
            let tail_len = start + len - tail_start in
            let tail_dsn = dsn + (tail_start - start) in
            let rest' = go rest tail_start tail_len tail_dsn in
            if prefix_len > 0 then { start; len = prefix_len; dsn } :: r :: rest'
            else r :: rest'
          end
    end
  in
  t.ranges <- coalesce (go t.ranges seq len dsn)

let pop_ready t ~rcv_nxt =
  match t.ranges with
  | { start; len; dsn } :: rest when start <= rcv_nxt ->
      (* ranges never start before rcv_nxt unless stale; trim just in case *)
      let skip = rcv_nxt - start in
      if skip >= len then begin
        t.ranges <- rest;
        None
      end
      else begin
        t.ranges <- rest;
        Some (dsn + skip, len - skip)
      end
  | _ -> None

let buffered_bytes t = List.fold_left (fun acc r -> acc + r.len) 0 t.ranges

let first_ranges t n =
  let rec take n = function
    | r :: rest when n > 0 -> (r.start, r.len) :: take (n - 1) rest
    | _ -> []
  in
  take n t.ranges
