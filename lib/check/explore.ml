open Smapp_sim

type outcome = {
  runs : int;
  baseline : string;
  digests : (string * int) list;
  divergent : (int * string) option;
}

let consistent o = o.divergent = None

let pp_outcome ppf o =
  Format.fprintf ppf "%d runs, %d distinct outcome%s" o.runs
    (List.length o.digests)
    (if List.length o.digests = 1 then "" else "s");
  match o.divergent with
  | None -> Format.fprintf ppf ", permutation-invariant"
  | Some (seed, digest) ->
      Format.fprintf ppf
        "@.first divergence at shuffle seed %d:@.  baseline: %s@.  diverged: %s"
        seed o.baseline digest

let run ?(permutations = 128) ?(world_seed = 7) ?(shuffle_seed = 1000) scenario =
  let exec tie =
    let engine = Engine.create ~seed:world_seed () in
    Engine.set_tie_break engine tie;
    scenario engine
  in
  let tally = Hashtbl.create 4 in
  let count d =
    Hashtbl.replace tally d (1 + Option.value ~default:0 (Hashtbl.find_opt tally d))
  in
  let baseline = exec Engine.Fifo in
  count baseline;
  let divergent = ref None in
  for i = 0 to permutations - 1 do
    let seed = shuffle_seed + i in
    let d = exec (Engine.Shuffle (Rng.create (Int64.of_int seed))) in
    count d;
    if d <> baseline && !divergent = None then divergent := Some (seed, d)
  done;
  let digests =
    (* the fold feeds a sort, so no iteration order escapes *)
    Hashtbl.fold (fun d n acc -> (d, n) :: acc) tally []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { runs = permutations + 1; baseline; digests; divergent = !divergent }
