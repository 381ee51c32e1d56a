(* Multi-seed experiment sweeps.

   [map ?pool f jobs] is the single entry point the experiments go
   through. Without a pool it is literally [List.map f jobs]: same
   domain, same scopes, same observable side effects as the historical
   sequential code (the CLI's [--trace] export keeps seeing the events).
   With a pool, job [i] runs inside a fresh observability scope
   ([Smapp_obs.Scope]) on lane [i mod d] of the [Lanes] round and the
   results come back in submission order — so the value a sweep returns
   is byte-identical either way, because a seeded simulation is a pure
   function of its inputs and never reads ambient metrics/trace state (the
   obs determinism test holds tracing to exactly that). *)

(* Set while a lane is executing sweep jobs — a job that calls [map]
   again would re-enter the round it is running in, so reject it eagerly.
   Per-domain: worker domains inherit the default [false] and set their
   own around each job. *)
let in_map : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

let map ?pool f jobs =
  match pool with
  | None -> List.map f jobs
  | Some lanes ->
      if Domain.DLS.get in_map then
        invalid_arg "Smapp_par.Sweep.map: nested parallel map";
      let jobs = Array.of_list jobs in
      let results = Array.make (Array.length jobs) None in
      (* [Lanes.run] re-raises the lowest-indexed failure with its
         backtrace after the barrier, which also orders every slot write
         before the reads below *)
      Lanes.run lanes ~shards:(Array.length jobs) (fun i ->
          Domain.DLS.set in_map true;
          Fun.protect
            ~finally:(fun () -> Domain.DLS.set in_map false)
            (fun () ->
              results.(i) <-
                Some
                  (Smapp_obs.Scope.with_scope (Smapp_obs.Scope.create ()) (fun () ->
                       f jobs.(i)))));
      Array.to_list
        (Array.map
           (function
             | Some v -> v
             | None ->
                 Smapp_sim.Bug.fail
                   "Sweep.map: unmerged slot — failures were re-raised by \
                    Lanes.run and every index is written before its barrier")
           results)
