(* The arena'd hot-path pattern: pooled reuse in place of per-event
   allocation. Everything here must classify clean — the hot-alloc rule
   fires on record/closure allocation inside [@@smapp.hot] functions,
   and the point of [Smapp_sim.Arena] is that steady-state reuse does
   neither: the slot record is allocated once by the pool's [make] (cold,
   inside the DLS initializer), while the hot take/stamp/put cycle only
   mutates fields. test_analysis asserts this module contributes zero
   findings. *)

module Arena = Smapp_sim.Arena

type job = {
  mutable j_id : int;
  mutable j_cost : int;
  mutable j_gen : int;  (* Arena.Gen parity stamp *)
}

(* the sanctioned home for a pool: one per domain, never shared *)
let pool_key : job Arena.t Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      Arena.create (fun () -> { j_id = 0; j_cost = 0; j_gen = Arena.Gen.fresh }))

(* the reader of the fields [acquire] writes: without one, dead-field
   would flag them *)
let cost t = t.j_id * t.j_cost

let acquire id cost =
  let t = Arena.take (Domain.DLS.get pool_key) in
  t.j_id <- id;
  t.j_cost <- cost;
  t
[@@smapp.hot]

let release t =
  t.j_gen <- Arena.Gen.retire t.j_gen;
  t.j_id <- 0;
  t.j_cost <- 0;
  Arena.put (Domain.DLS.get pool_key) t
[@@smapp.hot]
