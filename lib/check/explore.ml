open Smapp_sim

type outcome = {
  schedules : int;
  baseline : string;
  digests : (string * int) list;
  divergent : (int list * string) option;
}

let consistent o = o.divergent = None

let pp_outcome ppf o =
  let s n = if n = 1 then "" else "s" and outcomes = List.length o.digests in
  Format.fprintf ppf "%d schedule%s, %d distinct outcome%s" o.schedules (s o.schedules)
    outcomes (s outcomes);
  match o.divergent with
  | None -> Format.fprintf ppf ", order-invariant"
  | Some (picks, digest) ->
      Format.fprintf ppf "@.first divergence at picks [%s]:@.  baseline: %s@.  diverged: %s"
        (String.concat " " (List.map string_of_int picks))
        o.baseline digest

(* A tripwire for a scenario whose ties multiply, not a bound on the walk. *)
let max_schedules = 10_000

let nondeterministic () =
  Bug.fail "Explore.run: a replayed schedule met other tie groups: the scenario is nondeterministic"

(* [tally] with one more [d]: an association list sorted by digest. *)
let rec count d = function
  | (d', n) :: rest when d' = d -> (d, n + 1) :: rest
  | ((d', _) as x) :: rest when d' < d -> x :: count d rest
  | tally -> (d, 1) :: tally

(* The schedule after [trail], both as (pick, group size) deepest first:
   the deepest pick with an untried sibling moves on, the picks above it
   stay, and the picks below it start again from 0. *)
let rec next = function
  | [] -> None
  | (i, n) :: above -> if i + 1 < n then Some ((i + 1, n) :: above) else next above

(* One run that replays [prefix], shallowest first, and picks 0 after it:
   its digest and its trail, deepest first. *)
let exec scenario prefix =
  let replay = ref prefix and trail = ref [] in
  let choose n =
    let i =
      match !replay with
      | [] -> 0
      | (i, m) :: rest ->
          if m <> n then nondeterministic ();
          replay := rest;
          i
    in
    trail := (i, n) :: !trail;
    i
  in
  let digest = scenario (Engine.create ~seed:7 ~choose ()) in
  if !replay <> [] then nondeterministic ();
  (digest, !trail)

let run scenario =
  let baseline, trail = exec scenario [] in
  let rec walk trail schedules tally divergent =
    match next trail with
    | None -> { schedules; baseline; digests = tally; divergent }
    | Some _ when schedules = max_schedules ->
        invalid_arg (Printf.sprintf "Explore.run: more than %d schedules" max_schedules)
    | Some prefix ->
        let d, trail = exec scenario (List.rev prefix) in
        let divergent =
          if divergent = None && d <> baseline then Some (List.rev_map fst trail, d)
          else divergent
        in
        walk trail (schedules + 1) (count d tally) divergent
  in
  walk trail 1 (count baseline []) None
