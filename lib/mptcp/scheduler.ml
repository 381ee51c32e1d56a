open Smapp_sim

type t = { pick : Subflow.t list -> Subflow.t option }

let usable ~min_space subflows =
  let ready s = Subflow.established s && Subflow.window_space s >= min_space in
  let regular_alive = List.filter (fun s -> Subflow.established s && not (Subflow.is_backup s)) subflows in
  (* RFC 6824: a backup subflow carries data only when no regular subflow is
     alive — a merely cwnd-limited regular subflow does not unlock backups *)
  if regular_alive <> [] then List.filter ready regular_alive
  else List.filter (fun s -> ready s && Subflow.is_backup s) subflows

let choose t ?(min_space = 1) subflows = t.pick (usable ~min_space subflows)

let lowest_rtt =
  let pick candidates =
    let rtt_of s =
      match Subflow.srtt s with
      | None -> Time.span_zero (* unprobed subflows get priority *)
      | Some s -> s
    in
    let better a b = if Time.compare_span (rtt_of a) (rtt_of b) <= 0 then a else b in
    match candidates with
    | [] -> None
    | first :: rest -> Some (List.fold_left better first rest)
  in
  { pick }

let round_robin () =
  let last = ref (-1) in
  let pick candidates =
    match candidates with
    | [] -> None
    | _ ->
        let after = List.filter (fun s -> s.Subflow.id > !last) candidates in
        let chosen =
          match after with
          | s :: _ -> s
          | [] -> List.hd candidates
        in
        last := chosen.Subflow.id;
        Some chosen
  in
  { pick }
