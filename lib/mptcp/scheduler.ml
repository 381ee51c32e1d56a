type t = Lowest_rtt | Round_robin of int ref (* the last chosen subflow id *)

(* A candidate is established with [min_space] bytes of window open. *)
let ready ~min_space s = Subflow.established s && Subflow.window_space s >= min_space

(* One pass for the Linux default: the earliest ready regular subflow with
   the least srtt (0 when unprobed, so fresh subflows get priority), and
   the same among backups. RFC 6824: a backup carries data only when no
   regular subflow is alive — a merely cwnd-limited regular subflow does
   not unlock backups. An rtt of -1 means no candidate yet. *)
let rec lowest ~min_space ~alive best best_rtt backup backup_rtt = function
  | s :: rest ->
      let rtt = if ready ~min_space s then Subflow.srtt_ns s else -1 in
      if Subflow.is_backup s then
        if rtt >= 0 && (backup_rtt < 0 || rtt < backup_rtt) then
          lowest ~min_space ~alive best best_rtt s rtt rest
        else lowest ~min_space ~alive best best_rtt backup backup_rtt rest
      else
        let alive = alive || Subflow.established s in
        if rtt >= 0 && (best_rtt < 0 || rtt < best_rtt) then
          lowest ~min_space ~alive s rtt backup backup_rtt rest
        else lowest ~min_space ~alive best best_rtt backup backup_rtt rest
  | [] ->
      if alive && best_rtt >= 0 then best
      else if (not alive) && backup_rtt >= 0 then backup
      else raise Not_found
[@@smapp.hot]

let rotate last ~min_space subflows =
  let regular_alive =
    List.filter (fun s -> Subflow.established s && not (Subflow.is_backup s)) subflows
  in
  let candidates =
    if regular_alive <> [] then List.filter (ready ~min_space) regular_alive
    else List.filter (fun s -> ready ~min_space s && Subflow.is_backup s) subflows
  in
  match candidates with
  | [] -> raise Not_found
  | first :: _ ->
      let chosen =
        match List.filter (fun s -> s.Subflow.id > !last) candidates with
        | s :: _ -> s
        | [] -> first
      in
      last := chosen.Subflow.id;
      chosen

let choose t ~min_space subflows =
  match (t, subflows) with
  | Lowest_rtt, first :: _ -> lowest ~min_space ~alive:false first (-1) first (-1) subflows
  | Lowest_rtt, [] -> raise Not_found
  | Round_robin rr, _ -> rotate rr ~min_space subflows
[@@smapp.hot]

let lowest_rtt = Lowest_rtt
let round_robin () = Round_robin (ref (-1))
